"""The names the benchmark harness in ``perfbench/`` reads from qfpsim.

The harness wraps layer functions by name (``perfbench/spans.py``), records
``qfpsim.USING_NUMBA`` (``perfbench/run.py``), and builds its inputs and
checks its outputs through library calls (``perfbench/workloads.py``).  Its
own self-test is not part of this suite, so these tests pin those names here:
a refactor that drops or moves one fails in the library's tests, not only in
the benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import qfpsim
from qfpsim import (_kernels, bounds, cli, compiler, embeddings, fingerprint, io, linalg,
                    problems)
from tests.test_io_cli import child_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    # By path, and not run.py, which sets BLAS thread variables when imported.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_function_exists_in_its_module():
    for span, (module, functions) in load_spans().LAYERS.items():
        mod = importlib.import_module(module)
        for name in functions:
            assert callable(getattr(mod, name, None)), f"{span}: {module}.{name}"


def test_the_traced_pass_finds_every_span_module_loaded():
    # The traced pass imports qfpsim.cli and workloads.py, then wraps each
    # LAYERS module from sys.modules; the commands import the rest lazily.
    child = (
        "import importlib.util, json, sys\n"
        "import qfpsim.cli\n"
        "spec = importlib.util.spec_from_file_location('workloads', sys.argv[1])\n"
        "sys.modules['workloads'] = module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", child, str(PERFBENCH / "workloads.py")],
                         env=child_env(), capture_output=True, text=True, check=True)
    modules = set(json.loads(out.stdout))
    assert {module for module, _ in load_spans().LAYERS.values()} <= modules


def test_using_numba_is_false():
    assert qfpsim.USING_NUMBA is False


def test_cross_module_bindings_the_wrappers_reach():
    # The span wrappers patch every module attribute bound to a layer
    # function, so these names must stay bound to the defining module's
    # function.  fingerprint.pair_sequence and fingerprint.generator are left
    # out: no library code imports pair_sequence any more, and simulate draws
    # from _rng.uniforms, not numpy's generator (known harness failures).
    bindings = [
        (bounds, "operator_norm", linalg), (bounds, "linf_to_l1_norm", linalg),
        (bounds, "margin_ascent", _kernels),
        (cli, "verify_threshold_embedding", embeddings),
        (compiler, "verify_threshold_embedding", embeddings),
        (fingerprint, "verify_threshold_embedding", embeddings),
    ]
    for user, name, owner in bindings:
        assert getattr(user, name) is getattr(owner, name), f"{user.__name__}.{name}"


def test_margin_report_has_the_fields_check_margin_reads():
    fields = set(bounds.MarginReport._fields)
    assert {"forster", "upper", "heuristic_lower", "gamma_source",
            "repetition_lower"} <= fields


def test_names_the_workloads_call_exist():
    names = [
        (compiler, "compile_smp"), (compiler, "assemble_shared_randomness_states"),
        (problems, "eq_parity_protocol"), (problems, "eq_matrix"),
        (problems, "ham_parity_embedding"), (io, "document"), (io, "dump"),
        (io, "vectors_payload"), (io, "sign_matrix_payload"), (io, "embedding_payload"),
        (fingerprint, "required_repetitions"),
    ]
    for mod, name in names:
        assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
