"""Swap-test acceptance law, Monte-Carlo repeated fingerprinting, and the
referee's threshold decision."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import generator
from .embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    _require_unit_rows,
    realization_to_embedding,
    verify_realization,
    verify_threshold_embedding,
)


@dataclass(frozen=True)
class FingerprintProtocol:
    """A repeated-fingerprinting protocol: r parallel swap tests on copies of
    the embedding's states, thresholded at theta by the referee."""

    embedding: ThresholdEmbedding
    repetitions: int
    theta: float

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not (self.embedding.delta0 < self.theta < self.embedding.delta1):
            raise ValueError(
                f"theta={self.theta} must lie strictly between delta0={self.embedding.delta0} "
                f"and delta1={self.embedding.delta1}"
            )

    @property
    def qubits_per_copy(self) -> int:
        return max(1, math.ceil(math.log2(self.embedding.dimension)))

    @property
    def total_qubits(self) -> int:
        # Alice's copies plus Bob's copies.
        return 2 * self.qubits_per_copy * self.repetitions


def swap_test_prob(alpha, beta) -> float:
    """Probability of outcome 0: 1/2 + <alpha, beta>^2 / 2."""
    a = np.asarray(alpha, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    _require_unit_rows("alpha", np.atleast_2d(a))
    _require_unit_rows("beta", np.atleast_2d(b))
    return 0.5 + float(a @ b) ** 2 / 2.0


def required_repetitions(delta0: float, delta1: float, eps: float) -> int:
    """Hoeffding-sufficient repetition count ceil(8 ln(2/eps) / (delta1-delta0)^2).

    The referee's estimate 2 p_hat - 1 of the squared inner product must land
    on the correct side of the midpoint, i.e. p_hat must deviate by less than
    (delta1-delta0)/4; the constant 8 follows.
    """
    if not (0.0 <= delta0 < delta1 <= 1.0):
        raise ValueError(f"need 0 <= delta0 < delta1 <= 1, got ({delta0}, {delta1})")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    gap = delta1 - delta0
    return math.ceil(8.0 * math.log(2.0 / eps) / gap**2)


def referee_rule(frac_zero, theta: float):
    """The referee's rule: the estimate 2 frac_zero - 1 of the squared inner
    product, clipped to [0, 1], is thresholded at theta (ties go to 1).
    Applies elementwise to an array of zero-outcome fractions."""
    return np.clip(2.0 * frac_zero - 1.0, 0.0, 1.0) >= theta


def protocol_from_embedding(e: ThresholdEmbedding, eps: float) -> FingerprintProtocol:
    """The fingerprinting protocol on e's states for error eps: the Hoeffding
    repetition count, thresholded at the midpoint of (delta0, delta1)."""
    reps = required_repetitions(e.delta0, e.delta1, eps)
    return FingerprintProtocol(e, reps, (e.delta0 + e.delta1) / 2.0)


def protocol_from_margin(m: SignMatrix, r: Realization, eps: float) -> FingerprintProtocol:
    """Build a fingerprinting protocol from a margin-gamma realization:
    converts it to a threshold embedding and sizes it with
    ``protocol_from_embedding``."""
    report = verify_realization(r, m)
    if not report.valid:
        raise ValueError(
            f"realization does not achieve its margin on M "
            f"(achieved {report.achieved_margin}, claimed {r.gamma})"
        )
    return protocol_from_embedding(realization_to_embedding(r), eps)


@dataclass(frozen=True)
class ProtocolRunReport:
    per_pair_error: np.ndarray = field(repr=False)  # NaN on promise-excluded pairs
    max_error: float


def run_protocol(p: FingerprintProtocol, m: SignMatrix, trials: int, seed) -> ProtocolRunReport:
    """Monte-Carlo error estimate of a protocol on every non-promise pair.

    The referee sees only how many of the r swap tests gave 0, and that count
    is Bin(r, P0) with P0 = 1/2 + <alpha_x, beta_y>^2 / 2. So each trial draws
    that count instead of r outcome bits; the law is that of r independent
    swap tests. All P0 come from one inner-product matrix, with no per-state
    check: ``ThresholdEmbedding`` already holds its rows to unit norm at the
    tolerance ``swap_test_prob`` checks. One PCG64 stream from ``seed`` draws
    the counts one row of M at a time, so memory stays at cols x trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    report = verify_threshold_embedding(p.embedding, m)
    if not report.valid:
        raise ValueError(
            f"embedding is not valid for M (worst f=0 side {report.worst_zero_side}, "
            f"worst f=1 side {report.worst_one_side})"
        )
    r = p.repetitions
    # Identical unit states can give <a, a>^2 = 1 + ulp, and binomial refuses p > 1.
    p_zero = np.minimum(0.5 + (p.embedding.alphas @ p.embedding.betas.T) ** 2 / 2.0, 1.0)
    rng = generator(seed)
    errors = np.full((m.rows, m.cols), np.nan)
    for x in range(m.rows):
        cols = np.flatnonzero(m.entries[x])
        zeros = rng.binomial(r, p_zero[x, cols][:, None], size=(cols.size, trials))
        expected = m.entries[x, cols] == -1  # -1 encodes f(x,y)=1
        errors[x, cols] = (referee_rule(zeros / r, p.theta) != expected[:, None]).mean(axis=1)
    return ProtocolRunReport(
        per_pair_error=errors,
        max_error=float(np.nanmax(errors)),
    )
