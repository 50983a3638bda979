"""The host's pace, sampled between timed jobs.

On a shared VM the same job can run 30% slower for minutes at a time, and
its CPU time slows with its wall time, so neither shows how fast the program
is.  A pace sample times three fixed pieces of the kinds of work qfpsim jobs
do: interpreted arithmetic, a JSON round trip of floats and BLAS matrix
products.  Its slowdown is the geometric mean of each piece's time over the
piece's time on the reference machine (a shared 2-core x86-64 VM with Python
3.11 and numpy 2.4 on one OpenBLAS thread, when it ran fast).

Every timed job sits between two samples.  Dividing the job's time by the
mean slowdown of the two gives its time at the reference pace, which is what
the timing metrics report.  The raw times are printed beside them.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

REPEATS = 2  # each piece runs this many times per sample; the mean counts


def _arithmetic() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


class Pace:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        floats = rng.random(10_000).tolist()
        matrix = rng.random((160, 160))

        def json_round_trip() -> None:
            json.loads(json.dumps(floats))

        def matrix_products() -> None:
            for _ in range(30):
                matrix @ matrix

        # piece -> its mean time on the reference machine, in seconds
        self.pieces = {
            _arithmetic: 0.0060,
            json_round_trip: 0.0080,
            matrix_products: 0.0042,
        }
        self.last = self.sample()

    def sample(self) -> float:
        """The host's slowdown now against the reference machine."""
        logs = []
        for piece, reference_s in self.pieces.items():
            start = time.perf_counter()
            for _ in range(REPEATS):
                piece()
            logs.append(math.log((time.perf_counter() - start) / REPEATS / reference_s))
        return math.exp(sum(logs) / len(logs))

    def mark(self) -> None:
        """Sample now, as the start of the next job."""
        self.last = self.sample()

    def slowdown(self) -> float:
        """The mean slowdown of the samples just before and just after the
        job that has just ended; the sample after starts the next job."""
        before, self.last = self.last, self.sample()
        return (before + self.last) / 2
