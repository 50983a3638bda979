"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

Runs every workload for a single cycle in both modes and checks the result
against BENCHMARK.json; takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from pace import Pace  # noqa: E402
from spans import Tracer  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Per-layer metrics each workload is built to drive; all are zero elsewhere
# or a small share of the in-process time.
PREDICTED_NONZERO = {
    "eq-interchange": [
        "io.dump.busy_s", "io.load.busy_s", "io.parse.busy_s", "io.bytes_written",
        "compiler.compile.busy_s", "compiler.assemble.busy_s", "compiler.state_mb",
        "projections.project.busy_s", "projections.distortion.busy_s",
        "embeddings.verify.busy_s", "embeddings.verify.pairs", "problems.setup_busy_s",
    ],
    "margin-bounds": [
        "linalg.operator_norm.busy_s", "linalg.operator_norm.calls",
        "linalg.linf_to_l1_norm.busy_s", "linalg.linf_to_l1_norm.sign_vectors",
        "kernels.margin_ascent.busy_s", "kernels.margin_ascent.calls",
        "kernels.margin_ascent.steps", "bounds.heuristic.useful_ratio",
        "bounds.margin_report.busy_s", "problems.busy_s",
    ],
    "protocol-sim": [
        "fingerprint.run_protocol.busy_s", "fingerprint.swap_tests", "fingerprint.copies",
        "rng.pair_sequence.calls", "rng.generator.busy_s", "compiler.assemble.busy_s",
        "embeddings.verify.pairs", "problems.busy_s", "problems.setup_busy_s",
    ],
}
EVERYWHERE = ["io.bytes_written", "cli.startup_s", "cli.main.busy_s"]


def run_bench(capsys, *argv: str) -> dict:
    assert bench.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name], name


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_end_to_end_smoke(capsys, workload):
    result = run_bench(capsys, "--workload", workload, "--seconds", "0", "--trace", "0")
    assert_metrics(result, CONTRACT["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_per_layer_smoke(capsys, workload):
    result = run_bench(capsys, "--workload", workload, "--seconds", "0", "--trace", "1")
    assert_metrics(result, CONTRACT["per_layer"])
    assert result["correct"] and result["failed"] == 0
    zero = [name for name in PREDICTED_NONZERO[workload] + EVERYWHERE
            if not result["metrics"][name]["value"] > 0]
    assert not zero, f"predicted non-zero on {workload}: {zero}"


def test_truncated_output_counts_as_failed(capsys, monkeypatch):
    run_child = bench.run_child

    def truncating(launcher, job, cwd):
        outcome = run_child(launcher, job, cwd)
        if job.label == "simulate eq n=5":
            text = job.out.read_text()
            job.out.write_text(text[: len(text) // 2])
        return outcome

    monkeypatch.setattr(bench, "run_child", truncating)
    result = run_bench(capsys, "--workload", "protocol-sim", "--seconds", "0", "--trace", "0")
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == bench.SETUPS + 3


def test_wrappers_reach_names_imported_elsewhere():
    import qfpsim.bounds
    import qfpsim.cli
    import qfpsim.compiler
    import qfpsim.fingerprint
    import qfpsim.linalg

    original = qfpsim.linalg.operator_norm
    lookups = [
        (qfpsim.bounds, "operator_norm"), (qfpsim.bounds, "linf_to_l1_norm"),
        (qfpsim.bounds, "margin_ascent"), (qfpsim.fingerprint, "generator"),
        (qfpsim.fingerprint, "pair_sequence"), (qfpsim.cli, "verify_threshold_embedding"),
        (qfpsim.compiler, "verify_threshold_embedding"),
        (qfpsim.fingerprint, "verify_threshold_embedding"),
    ]
    before = [getattr(mod, attr) for mod, attr in lookups]
    with Tracer().installed():
        for (mod, attr), fn in zip(lookups, before):
            assert getattr(mod, attr).__wrapped__ is fn, f"{mod.__name__}.{attr}"
        assert qfpsim.bounds.operator_norm is qfpsim.linalg.operator_norm
    assert [getattr(mod, attr) for mod, attr in lookups] == before
    assert qfpsim.linalg.operator_norm is original


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [[0, "outer", 0.0, 10.0, -1], [0, "inner", 2.0, 5.0, 0],
                    [0, "inner", 6.0, 7.0, 0]]
    busy, total, calls = tracer.summary()
    assert busy["outer"] == 6.0 and total["outer"] == 10.0
    assert busy["inner"] == 4.0 and calls["inner"] == 2


def test_pace_divides_each_job_by_the_samples_around_it(monkeypatch):
    samples = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(Pace, "sample", lambda self: next(samples))
    pace = Pace()
    assert pace.slowdown() == 2.0  # samples 1.0 before and 3.0 after
    assert pace.slowdown() == 2.5  # the sample after one job starts the next
    outcome = bench.Outcome(job=None, wall_s=5.0, cpu_s=4.0, slowdown=2.5)
    assert outcome.paced_s == 2.0 and outcome.paced_cpu_s == 1.6


def test_pace_sample_is_near_one_at_reference_speed():
    # Loose: a busy shared host runs slower than the reference, never 10x.
    assert 0.3 < Pace().sample() < 10.0
