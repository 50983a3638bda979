"""The benchmark's workloads: seeded input documents, the cycle of qfpsim CLI
jobs each workload repeats, and the invariant checks on every job's output.

A run repeats ``round(--seconds / reference_cycle_s)`` cycles, so parent
and change measure the same jobs.  ``reference_cycle_s`` is roughly one cycle
of CLI children, with the pace samples between them, on the reference
machine at its usual slowdown of about 1.5 (see pace.py): a shared 2-core
x86-64 VM with Python 3.11 and numpy 2.4 on one OpenBLAS thread.  Each value
is chosen so that at 30 s the median job and the job at the tail percentile
each fall inside one kind of job, not on the edge between two kinds of very
different length, and so that all the runs of a full check of the benchmark
fit in its time limit.

Checks test invariants of the mathematics, never seeded bytes, so that a
change of random streams or an added report field does not trip them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qfpsim import compiler, io, problems
from qfpsim.embeddings import SignMatrix, ThresholdEmbedding
from qfpsim.fingerprint import required_repetitions

FORSTER_REL_TOL = 1e-9
EXACT_REL_TOL = 1e-12


class CheckFailed(Exception):
    """A job's output document broke an invariant of its workload."""


@dataclass(frozen=True)
class Job:
    label: str
    args: list[str]  # qfpsim CLI arguments, without the interpreter
    out: Path  # the document the job writes through --out
    check: Callable[[dict], None]  # raises CheckFailed


def check_output(job: Job) -> str | None:
    """Why the job's output is wrong, or None when every invariant holds."""
    try:
        with open(job.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        job.check(doc)
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable output: {exc}"
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _payload(doc: dict, kind: str) -> dict:
    if doc.get("kind") != kind:
        raise CheckFailed(f"expected a {kind!r} document, got {doc.get('kind')!r}")
    return doc["payload"]


def _close(what: str, actual: float, expected: float, rel_tol: float) -> None:
    if not math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0):
        raise CheckFailed(f"{what} = {actual!r}, expected {expected!r}")


def check_compile(n: int) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        p = _payload(doc, "embedding")
        _close("delta0", p["delta0"], 1 / 16, EXACT_REL_TOL)
        _close("delta1", p["delta1"], 1 / 4, EXACT_REL_TOL)
        if p["dimension"] != 4 << n:
            raise CheckFailed(f"dimension {p['dimension']}, expected {4 << n}")

    return check


def check_verify(doc: dict) -> None:
    if _payload(doc, "report")["valid"] is not True:
        raise CheckFailed("verify reports an invalid embedding")


def check_margin(entries: np.ndarray) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        p = _payload(doc, "report")
        if (p["rows"], p["cols"]) != entries.shape:
            raise CheckFailed(f"report is for {p['rows']}x{p['cols']}, input is {entries.shape}")
        if np.all(entries != 0):
            m = entries.astype(np.float64)
            top = np.linalg.eigvalsh(m.T @ m)[-1]
            _close("forster", p["forster"], min(1.0, math.sqrt(top / m.size)), FORSTER_REL_TOL)
        upper, lower = p["upper"], p["heuristic_lower"]
        if upper is not None and lower is not None and upper < lower:
            raise CheckFailed(f"upper bound {upper} below heuristic witness {lower}")
        gamma = {"upper_bound": upper, "heuristic_lower": lower}[p["gamma_source"]]
        _close("repetition_lower", p["repetition_lower"], 1 / gamma**2, EXACT_REL_TOL)

    return check


def check_simulate(trials: int) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        p = _payload(doc, "report")
        if p["trials"] != trials:
            raise CheckFailed(f"ran {p['trials']} trials, asked for {trials}")
        copies = required_repetitions(p["delta0"], p["delta1"], p["eps"])
        if p["copies"] != copies:
            raise CheckFailed(f"copies = {p['copies']}, required_repetitions gives {copies}")
        if not p["max_error"] <= p["eps"]:
            raise CheckFailed(f"max_error {p['max_error']} exceeds eps {p['eps']}")

    return check


def check_project(count: int, source_dim: int, dim: int) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        p = _payload(doc, "report")
        shape = (len(p["projected"]), {len(row) for row in p["projected"]})
        if p["source_dim"] != source_dim or shape != (count, {dim}):
            raise CheckFailed(f"projected {p['source_dim']}-dim vectors to shape {shape}")
        if not math.isfinite(p["max_distortion"]):
            raise CheckFailed("max_distortion is not finite")

    return check


def _dump(kind: str, payload: dict, path: Path) -> Path:
    io.dump(io.document(kind, payload), str(path))
    return path


def _sign_matrix(rng: np.random.Generator, shape: tuple[int, int], zeros: float = 0.0) -> np.ndarray:
    entries = rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)
    entries[rng.random(shape) < zeros] = 0
    return entries


def _ip_entries(k: int) -> np.ndarray:
    idx = np.arange(1 << k)
    parity = np.array([bin(v).count("1") & 1 for v in np.bitwise_and.outer(idx, idx).ravel()])
    return (1 - 2 * parity).reshape(1 << k, 1 << k).astype(np.int8)


class EqInterchange:
    """Compile EQ protocols into fingerprint states, verify them, and
    JL-project the EQ-8 states: the JSON layer does most of the work."""

    name = "eq-interchange"
    reference_cycle_s = 7.5  # 4 cycles, 28 jobs at 30 s

    def setup(self, inputs: Path, seed: int) -> None:
        states = compiler.assemble_shared_randomness_states(
            compiler.compile_smp(problems.eq_parity_protocol(8)), problems.eq_matrix(8)
        ).alphas
        order = np.random.default_rng(seed).permutation(states.shape[0])
        self.vectors = _dump("vectors", io.vectors_payload(states[order]),
                             inputs / "eq8_states.json")
        self.seed = str(seed)

    def cycle(self, index: int, out: Path) -> list[Job]:
        jobs = []
        for n, model in ((7, "smp"), (8, "one-way"), (9, "smp")):
            states = out / f"eq{n}_states.json"
            jobs.append(Job(
                f"compile eq n={n} {model}",
                ["compile", "--builtin", "eq", "--n", str(n), "--model", model,
                 "--seed", self.seed, "--out", str(states)],
                states, check_compile(n)))
            report = out / f"eq{n}_verify.json"
            jobs.append(Job(
                f"verify eq n={n}",
                ["verify", "--builtin", "eq", "--n", str(n), "--embedding", str(states),
                 "--seed", self.seed, "--out", str(report)],
                report, check_verify))
        projected = out / "eq8_projected.json"
        jobs.append(Job(
            "project eq8 states 1024->256",
            ["project", "--vectors", str(self.vectors), "--dim", "256",
             "--seed", self.seed, "--out", str(projected)],
            projected, check_project(256, 1024, 256)))
        return jobs

    def warmup(self, out: Path) -> Job:
        return self.cycle(0, out)[0]


class MarginBounds:
    """Margin bounds of seeded random sign matrices: operator norm, sign-vector
    enumeration and margin ascent do the work; documents are kilobytes."""

    name = "margin-bounds"
    reference_cycle_s = 4.3  # 7 cycles, 35 jobs at 30 s

    # Distinct input sets per run, so that one run averages over several
    # matrices instead of hanging on one seed's spectral gap.
    INPUT_SETS = 8
    PROMISE_ZEROS = 0.2

    def setup(self, inputs: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = str(seed)
        self.sets = []
        for k in range(self.INPUT_SETS):
            matrices = {
                "spectral-192x192": _sign_matrix(rng, (192, 192)),
                "enum-16x22": _sign_matrix(rng, (16, 22)),
                "enum-40x20": _sign_matrix(rng, (40, 20)),
                "promise-12x12": _sign_matrix(rng, (12, 12), self.PROMISE_ZEROS),
            }
            self.sets.append({
                tag: (_dump("sign_matrix", io.sign_matrix_payload(SignMatrix(entries)),
                            inputs / f"{tag}_{k}.json"), entries)
                for tag, entries in matrices.items()
            })
        self.ip4 = _ip_entries(4)

    def _job(self, label: str, source: list[str], entries: np.ndarray, out: Path,
             heuristic: bool = False) -> Job:
        path = out / f"{label}.json"
        args = ["margin", *source, "--seed", self.seed, "--out", str(path)]
        if heuristic:
            args.append("--heuristic")
        return Job(label, args, path, check_margin(entries))

    def cycle(self, index: int, out: Path) -> list[Job]:
        matrices = self.sets[index % self.INPUT_SETS]

        def from_doc(tag: str, heuristic: bool = False) -> Job:
            path, entries = matrices[tag]
            return self._job(tag, ["--matrix", str(path)], entries, out, heuristic)

        return [
            from_doc("spectral-192x192"),
            from_doc("enum-16x22"),
            from_doc("enum-40x20"),
            self._job("ip-4", ["--builtin", "ip", "--k", "4"], self.ip4, out, heuristic=True),
            from_doc("promise-12x12", heuristic=True),
        ]

    def warmup(self, out: Path) -> Job:
        return self.cycle(0, out)[2]


class ProtocolSim:
    """Monte-Carlo runs of the swap-test referee protocol: run_protocol does
    the work, with many trials of few copies and few trials of many copies."""

    name = "protocol-sim"
    reference_cycle_s = 3.75  # 8 cycles, 24 jobs at 30 s

    def setup(self, inputs: Path, seed: int) -> None:
        ham = problems.ham_parity_embedding(5, 2).embedding
        # A seeded signed permutation of coordinates keeps every inner product.
        rng = np.random.default_rng(seed)
        cols = rng.permutation(ham.dimension)
        signs = rng.choice((-1.0, 1.0), size=ham.dimension)
        moved = ThresholdEmbedding(ham.alphas[:, cols] * signs, ham.betas[:, cols] * signs,
                                   ham.delta0, ham.delta1)
        self.embedding = _dump("embedding", io.embedding_payload(moved),
                               inputs / "ham5_2_embedding.json")
        self.seed = str(seed)

    def cycle(self, index: int, out: Path) -> list[Job]:
        runs = (
            ("simulate eq n=5", ["--builtin", "eq", "--n", "5"], 200),
            ("simulate eq n=6", ["--builtin", "eq", "--n", "6"], 100),
            ("simulate ham n=5 d=2",
             ["--builtin", "ham", "--n", "5", "--d", "2", "--embedding", str(self.embedding)], 20),
        )
        jobs = []
        for label, source, trials in runs:
            path = out / (label.replace(" ", "_").replace("=", "") + ".json")
            jobs.append(Job(label, ["simulate", *source, "--trials", str(trials),
                                    "--seed", self.seed, "--out", str(path)],
                            path, check_simulate(trials)))
        return jobs

    def warmup(self, out: Path) -> Job:
        return self.cycle(0, out)[2]


WORKLOADS = {w.name: w for w in (EqInterchange, MarginBounds, ProtocolSim)}
