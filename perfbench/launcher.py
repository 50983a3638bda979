"""Job launcher for the qfpsim benchmark: runs one child process at a time
and reports the child's own resource usage.

``run.py`` starts this process before it imports numpy or qfpsim and sends
every CLI job through it.  On Linux a child's ``ru_maxrss`` starts from the
peak RSS of the process that spawned it, so spawning from this small,
stdlib-only process keeps ``peak_rss_mb`` the job's own figure.

Protocol: one JSON object per line on stdin,
``{"argv": [...], "cwd": dir, "stdout": path, "stderr": path}``, answered by
one JSON object per line on stdout with the job's wall time measured around
spawn and reap, its user and system CPU time and peak RSS from ``os.wait4``,
its exit code and the number of bytes it wrote to stdout.  The launcher exits
when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

# A job that runs longer than this is killed, so one run of the benchmark
# always ends in bounded time.
JOB_TIMEOUT_S = 150.0


def run_job(job: dict) -> dict:
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not try again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "exit_code": proc.returncode,
        "stdout_bytes": os.path.getsize(job["stdout"]),
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_job(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
