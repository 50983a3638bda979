"""The names the benchmark harness in ``perfbench/`` reads from qfpsim.

The harness wraps layer functions by name (``perfbench/spans.py``), records
``qfpsim.USING_NUMBA`` (``perfbench/run.py``), and builds its inputs and
checks its outputs through library calls (``perfbench/workloads.py``).  Its
own self-test is not part of this suite, so these tests pin those names here:
a refactor that drops or moves one fails in the library's tests, not only in
the benchmark.
"""

import dataclasses
import importlib.util
from pathlib import Path

import qfpsim
from qfpsim import (_kernels, _rng, bounds, cli, compiler, embeddings, fingerprint, io, linalg,
                    problems)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_using_numba_is_false():
    assert qfpsim.USING_NUMBA is False


def test_cross_module_bindings_the_wrappers_reach():
    # The span wrappers patch every module attribute bound to a layer
    # function, so these names must stay bound to the defining module's
    # function.  fingerprint.pair_sequence is left out: no library code
    # imports it any more (a known harness failure).
    bindings = [
        (bounds, "operator_norm", linalg), (bounds, "linf_to_l1_norm", linalg),
        (bounds, "margin_ascent", _kernels), (fingerprint, "generator", _rng),
        (cli, "verify_threshold_embedding", embeddings),
        (compiler, "verify_threshold_embedding", embeddings),
        (fingerprint, "verify_threshold_embedding", embeddings),
    ]
    for user, name, owner in bindings:
        assert getattr(user, name) is getattr(owner, name), f"{user.__name__}.{name}"


def test_margin_report_has_the_fields_check_margin_reads():
    fields = {f.name for f in dataclasses.fields(bounds.MarginReport)}
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
