"""Benchmark of the qfpsim command line, as one researcher uses it.

Each workload repeats a cycle of CLI jobs.  With ``--trace 0`` every job is
its own ``python -m qfpsim.cli`` child, run one at a time (a closed loop with
one client), timed from outside, with the child's CPU time and peak RSS read
through ``os.wait4``; times are scaled to a reference pace of the host (see
pace.py).  With ``--trace 1`` the same cycles run in this process
through ``qfpsim.cli.main``, alternately with and without per-layer spans, and
the per-layer metrics are printed instead.  Every job's output is checked.

    python3 perfbench/run.py --workload all --seconds 30 --trace 0

prints each metric by name with its unit; the last line of the output is one
JSON object.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, chosen because it keeps runs steady on a small shared
# machine.  It is set before numpy loads, for this process and every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_spans"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import qfpsim
    import qfpsim.cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import qfpsim from {SRC}: {exc}")

from pace import Pace  # noqa: E402
from spans import MIB, Tracer  # noqa: E402
from workloads import WORKLOADS, Job, check_output  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
STARTUP_SAMPLES = 5  # interpreter starts per arm for cli.startup_s
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "job_cpu_s_p50": "s",
    "peak_rss_mb": "MiB",
    "output_mb_per_job": "MiB",
}

# Per-layer metrics are per traced cycle unless the unit says otherwise.
PER_LAYER_UNITS = {
    "io.dump.busy_s": "s/cycle",
    "io.load.busy_s": "s/cycle",
    "io.parse.busy_s": "s/cycle",
    "io.bytes_written": "bytes/cycle",
    "compiler.compile.busy_s": "s/cycle",
    "compiler.assemble.busy_s": "s/cycle",
    "compiler.state_mb": "MiB",
    "projections.project.busy_s": "s/cycle",
    "projections.distortion.busy_s": "s/cycle",
    "embeddings.verify.busy_s": "s/cycle",
    "embeddings.verify.pairs": "count/cycle",
    "linalg.operator_norm.busy_s": "s/cycle",
    "linalg.operator_norm.calls": "count/cycle",
    "linalg.linf_to_l1_norm.busy_s": "s/cycle",
    "linalg.linf_to_l1_norm.sign_vectors": "count/cycle",
    "kernels.margin_ascent.busy_s": "s/cycle",
    "kernels.margin_ascent.calls": "count/cycle",
    "kernels.margin_ascent.steps": "count/cycle",
    "bounds.heuristic.useful_ratio": "ratio",
    "bounds.margin_report.busy_s": "s/cycle",
    "fingerprint.run_protocol.busy_s": "s/cycle",
    "fingerprint.swap_tests": "count/cycle",
    "fingerprint.copies": "count/cycle",
    "rng.pair_sequence.calls": "count/cycle",
    "rng.generator.busy_s": "s/cycle",
    "problems.busy_s": "s/cycle",
    "problems.setup_busy_s": "s",
    "cli.startup_s": "s",
    "cli.main.busy_s": "s/cycle",
    "trace.overhead_ratio": "ratio",
}


class Launcher:
    """The stdlib-only process of launcher.py, through which every CLI child
    is started so that its peak RSS is its own."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def run(self, argv: list[str], cwd: Path, stem: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd),
                   "stdout": f"{stem}.stdout", "stderr": f"{stem}.stderr"}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=200)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict[str, str]:
    """This environment with the absolute src path first on PYTHONPATH, so a
    child finds qfpsim from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "using_numba": qfpsim.USING_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


@dataclass
class Outcome:
    job: Job
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    bytes_out: int = 0  # the --out document plus stdout
    error: str | None = None
    slowdown: float = 1.0  # the host's, around the job; see pace.py

    @property
    def paced_s(self) -> float:
        return self.wall_s / self.slowdown

    @property
    def paced_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


def fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def run_child(launcher: Launcher, job: Job, cwd: Path) -> Outcome:
    stem = job.out.with_suffix("")
    usage = launcher.run([sys.executable, "-m", "qfpsim.cli", *job.args], cwd, stem)
    error = None
    if usage["exit_code"] != 0:
        stderr = Path(f"{stem}.stderr").read_text(errors="replace").strip().splitlines()
        error = f"exit code {usage['exit_code']}: {stderr[-1] if stderr else ''}"
    written = job.out.stat().st_size if job.out.exists() else 0
    return Outcome(job, usage["wall_s"], usage["user_s"] + usage["sys_s"], usage["maxrss_kib"],
                   written + usage["stdout_bytes"], error)


def run_in_process(job: Job, tracer: Tracer | None) -> Outcome:
    if tracer is not None:
        tracer.job += 1
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = qfpsim.cli.main(job.args)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # one crashing job must not end the run
        code = repr(exc)
    wall = time.perf_counter() - start
    stdout_bytes = len(sink.getvalue().encode())
    if tracer is not None:
        tracer.counts["io.bytes_written"] += stdout_bytes
    return Outcome(job, wall, bytes_out=stdout_bytes,
                   error=None if code == 0 else f"exit code {code}")


def checked(outcomes: list[Outcome]) -> list[Outcome]:
    for o in outcomes:
        if o.error is None:
            o.error = check_output(o.job)
    return outcomes


def set_up(workload, seed: int, launcher: Launcher, where: Path) -> tuple[float, Outcome]:
    """Generate the seeded inputs and run one untimed warm-up job."""
    start = time.perf_counter()
    workload.setup(fresh_dir(where / "inputs"), seed)
    warm = run_child(launcher, workload.warmup(fresh_dir(where / "warmup")), where)
    return time.perf_counter() - start, warm


def end_to_end(workload, args, launcher: Launcher, run_dir: Path):
    # Times are reported at the reference pace: each is divided by the host's
    # slowdown, sampled just before and just after it (see pace.py).
    pace = Pace()
    setups, warmups = [], []
    for i in range(SETUPS):
        elapsed, warm = set_up(workload, args.seed, launcher, run_dir / f"setup{i}")
        setups.append((elapsed, pace.slowdown()))
        warmups.append(warm)

    cycles = max(1, round(args.seconds / workload.reference_cycle_s))
    outcomes, cycle_s = [], []
    for index in range(cycles):
        out = fresh_dir(run_dir / f"cycle{index}")
        jobs = workload.cycle(index, out)
        pace.mark()
        done = []
        for job in jobs:
            done.append(run_child(launcher, job, out))
            done[-1].slowdown = pace.slowdown()
        cycle_s.append(sum(o.paced_s for o in done))
        # Outputs are checked between cycles, off the clock.
        outcomes += checked(done)
        shutil.rmtree(out)

    paced = sorted(o.paced_s for o in outcomes)
    # With too few jobs for any such percentile, the slowest job stands in.
    rank = len(paced) - TAIL_BEYOND - 1 if len(paced) > TAIL_BEYOND else len(paced) - 1
    passed = sum(o.error is None for o in outcomes) / len(outcomes)
    metrics = {
        "setup_s": statistics.median(elapsed / slowdown for elapsed, slowdown in setups),
        # The median cycle, so that one slow input (a 192x192 matrix with a
        # tiny spectral gap) does not decide a whole run.
        "jobs_per_s": passed * len(outcomes) / cycles / statistics.median(cycle_s),
        "job_s_p50": statistics.median(paced),
        "job_s_tail": paced[rank],
        "job_cpu_s_p50": statistics.median(o.paced_cpu_s for o in outcomes),
        "peak_rss_mb": max(o.maxrss_kib for o in outcomes) / 1024,
        "output_mb_per_job": statistics.fmean(o.bytes_out for o in outcomes) / MIB,
    }
    walls = sorted(o.wall_s for o in outcomes)
    slowdowns = [o.slowdown for o in outcomes]
    notes = [
        f"{cycles} cycles, {len(paced)} timed jobs; paced cycle seconds min {min(cycle_s):.2f}, "
        f"median {statistics.median(cycle_s):.2f}, max {max(cycle_s):.2f}",
        f"job_s_tail is p{100 * (rank + 1) / len(paced):.0f} of {len(paced)} jobs, "
        f"{len(paced) - rank - 1} beyond it",
        f"host slowdown min {min(slowdowns):.2f}, median {statistics.median(slowdowns):.2f}, "
        f"max {max(slowdowns):.2f}; raw wall seconds: job p50 {statistics.median(walls):.4f}, "
        f"tail {walls[rank]:.4f}, setup {statistics.median(e for e, _ in setups):.4f}",
        "median paced seconds by job: " + ", ".join(
            f"{label} {statistics.median(o.paced_s for o in outcomes if o.job.label == label):.3f}"
            for label in dict.fromkeys(o.job.label for o in outcomes)),
    ]
    return metrics, checked(warmups) + outcomes, notes


def cli_startup(launcher: Launcher, where: Path) -> float:
    """Median interpreter start with ``import qfpsim.cli`` minus a bare one."""
    arms = {"bare": "pass", "import": "import qfpsim.cli"}
    samples = {arm: [] for arm in arms}
    for i in range(STARTUP_SAMPLES):
        for arm, code in arms.items():
            usage = launcher.run([sys.executable, "-c", code], where, where / f"startup{i}-{arm}")
            samples[arm].append(usage["wall_s"])
    return statistics.median(samples["import"]) - statistics.median(samples["bare"])


def per_layer(workload, args, launcher: Launcher, run_dir: Path):
    setup_tracer = Tracer()
    with setup_tracer.installed():
        _, warm = set_up(workload, args.seed, launcher, run_dir / "setup")

    # Each cycle runs twice in process, plain and traced, in alternating
    # order; a pair takes about two reference cycles.
    tracer = Tracer()
    cycle_s = {False: [], True: []}
    outcomes = []
    cycles = max(1, round(args.seconds / (2 * workload.reference_cycle_s)))
    for index in range(cycles):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            out = fresh_dir(run_dir / f"cycle{index}-{'traced' if traced else 'plain'}")
            jobs = workload.cycle(index, out)
            start = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                done = [run_in_process(job, tracer if traced else None) for job in jobs]
            cycle_s[traced].append(time.perf_counter() - start)
            outcomes += checked(done)
            shutil.rmtree(out)

    busy, total, calls = tracer.summary()
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "busy_s":
            metrics[name] = busy[layer] / cycles
        elif field == "calls":
            metrics[name] = calls[layer] / cycles
        else:
            metrics[name] = tracer.counts[name] / cycles
    ascents = calls["kernels.margin_ascent"]
    metrics.update({
        "cli.main.busy_s": total["cli.main"] / cycles,
        "compiler.state_mb": tracer.state_mb,
        "bounds.heuristic.useful_ratio":
            tracer.counts["bounds.heuristic.useful_starts"] / ascents if ascents else 0.0,
        "problems.setup_busy_s": setup_tracer.summary()[0]["problems"],
        "cli.startup_s": cli_startup(launcher, run_dir),
        "trace.overhead_ratio": statistics.median(
            t / p for t, p in zip(cycle_s[True], cycle_s[False])) - 1.0,
    })

    groups = {
        "io": ("io.dump", "io.load", "io.parse"),
        "linalg+kernels": ("linalg.operator_norm", "linalg.linf_to_l1_norm",
                           "kernels.margin_ascent"),
        "operator_norm": ("linalg.operator_norm",),
        "enumeration": ("linalg.linf_to_l1_norm",),
        "run_protocol": ("fingerprint.run_protocol",),
    }
    shares = ", ".join(
        f"{group} {sum(busy[n] for n in names) / total['cli.main']:.3f}"
        for group, names in groups.items()
    )
    path = write_spans(tracer, workload.name, args.seed)
    notes = [
        f"{cycles} cycles, each plain and traced, in {sum(cycle_s[False] + cycle_s[True]):.2f} s",
        f"self-time share of cli.main: {shares}",
        f"spans written to {path.relative_to(ROOT)}",
    ]
    return metrics, checked([warm]) + outcomes, notes


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    """One JSON line per span; ``parent`` is the line index of the span that
    caused it (-1 for cli.main), ``job`` numbers the traced jobs."""
    SPANS_OUT.mkdir(exist_ok=True)
    path = SPANS_OUT / f"{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for job, name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"job": job, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")
    return path


def run_workload(name: str, args, launcher: Launcher) -> dict:
    workload = WORKLOADS[name]()
    run_dir = fresh_dir(WORK / f"{name}-{os.getpid()}")
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, outcomes, notes = measure(workload, args, launcher, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = [o for o in outcomes if o.error is not None]
    for metric, unit in units.items():
        print(f"{name:<15} {metric:<36} {metrics[metric]:>14.6g} {unit}")
    print(f"{name:<15} {'error_rate':<36} {len(failed) / len(outcomes):>14.6g} ratio "
          f"({len(failed)} of {len(outcomes)} jobs failed)")
    for note in notes:
        print(f"{name:<15} {note}")
    for o in failed:
        print(f"{name:<15} FAILED {o.job.label}: {o.error}")
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length at the reference speed; sets the number of cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("environment " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    launcher = Launcher(child_env())
    try:
        results = {name: run_workload(name, args, launcher) for name in names}
    finally:
        launcher.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
