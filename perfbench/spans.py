"""Per-layer spans for the traced in-process pass of the benchmark.

Each layer is a set of public qfpsim functions.  ``Tracer.installed`` swaps
every module attribute that refers to one of them for a timing wrapper, so a
function that another module imported by name (``bounds`` imports
``operator_norm``, ``fingerprint`` imports ``generator``, ...) is wrapped
where that caller looks it up.  Spans nest: a span's self time is its
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (defining module, public functions)
LAYERS = {
    "cli.main": ("qfpsim.cli", ["main"]),
    "io.dump": ("qfpsim.io", ["dump"]),
    "io.load": ("qfpsim.io", ["load"]),
    "io.parse": ("qfpsim.io", ["parse_sign_matrix", "parse_embedding", "parse_realization",
                               "parse_vector_system", "parse_protocol", "parse_vectors"]),
    "compiler.compile": ("qfpsim.compiler", ["compile_smp", "compile_one_way"]),
    "compiler.assemble": ("qfpsim.compiler", ["assemble_shared_randomness_states"]),
    "projections.project": ("qfpsim.projections", ["project_vectors"]),
    "projections.distortion": ("qfpsim.projections", ["verify_distortion"]),
    "embeddings.verify": ("qfpsim.embeddings",
                          ["verify_threshold_embedding", "verify_realization"]),
    "linalg.operator_norm": ("qfpsim.linalg", ["operator_norm"]),
    "linalg.linf_to_l1_norm": ("qfpsim.linalg", ["linf_to_l1_norm"]),
    "kernels.margin_ascent": ("qfpsim._kernels", ["margin_ascent"]),
    "bounds.margin_report": ("qfpsim.bounds", ["margin_report"]),
    "fingerprint.run_protocol": ("qfpsim.fingerprint", ["run_protocol"]),
    "rng.generator": ("qfpsim._rng", ["generator"]),
    "rng.pair_sequence": ("qfpsim._rng", ["pair_sequence"]),
    "problems": ("qfpsim.problems", ["eq_matrix", "ip_matrix", "ham_matrix",
                                     "eq_parity_protocol", "eq_parity_one_way_protocol",
                                     "collision_probability", "ham_parity_embedding"]),
}

MIB = float(1 << 20)


class Tracer:
    """Keeps spans in memory as [job, name, start, end, parent index] and
    counts work at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.state_mb = 0.0  # largest assembled fingerprint state
        self._best_start: dict[int, float] = {}

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        # A numba dispatcher keeps the Python function in py_func.
        signature = inspect.signature(getattr(fn, "py_func", fn)) if count else None

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [self.job, name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(signature.bind(*args, **kwargs).arguments, result, span[4])
            return result

        traced.__wrapped__ = fn
        return traced

    # Counters, named after the span they belong to.

    def _count_io_dump(self, a, result, parent):
        if a.get("path") is not None:
            self.counts["io.bytes_written"] += os.path.getsize(a["path"])

    def _count_compiler_assemble(self, a, result, parent):
        self.state_mb = max(self.state_mb, (result.alphas.nbytes + result.betas.nbytes) / MIB)

    def _count_embeddings_verify(self, a, result, parent):
        m = a["m"]
        self.counts["embeddings.verify.pairs"] += m.rows * m.cols

    def _count_linalg_linf_to_l1_norm(self, a, result, parent):
        self.counts["linalg.linf_to_l1_norm.sign_vectors"] += 1 << (np.shape(a["m"])[1] - 1)

    def _count_kernels_margin_ascent(self, a, result, parent):
        self.counts["kernels.margin_ascent.steps"] += a["iterations"] + 1
        # A start is useful when it beats the best start so far of the same
        # search; the first start of a search always does.
        best = self._best_start.get(parent, -math.inf)
        if result[2] > best:
            self.counts["bounds.heuristic.useful_starts"] += 1
            self._best_start[parent] = result[2]

    def _count_fingerprint_run_protocol(self, a, result, parent):
        p, m = a["p"], a["m"]
        self.counts["fingerprint.swap_tests"] += (
            int(np.count_nonzero(m.entries)) * a["trials"] * p.repetitions
        )
        self.counts["fingerprint.copies"] += p.repetitions

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function at every qfpsim attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qfpsim" or n.startswith("qfpsim."))]
        patched = []
        try:
            for name, (module, functions) in LAYERS.items():
                for fn_name in functions:
                    original = getattr(sys.modules[module], fn_name)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def summary(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self time and total time per span name, and calls per span name."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (_, name, start, end, _) in enumerate(self.spans):
            busy[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
        return busy, total, calls
