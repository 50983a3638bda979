"""Swap-test acceptance law, the referee's threshold decision, and the exact
error law of repeated fingerprinting with a Monte-Carlo estimate beside it."""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from ._rng import generator
from .embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    _require_unit_rows,
    _row_blocks,
    realization_to_embedding,
    verify_realization,
    verify_threshold_embedding,
)


class FingerprintProtocol(Record):
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


def referee_threshold(r: int, theta: float) -> int:
    """k*: the least count of zero outcomes among r that ``referee_rule`` maps
    to 1, or r + 1 if it maps none.  The rule is evaluated on every count
    0..r, so its clip and its ties-to-1 carry over exactly; the rule is
    nondecreasing in the count, so it says 1 exactly from k* on."""
    says_one = referee_rule(np.arange(r + 1) / r, theta)
    return int(says_one.argmax()) if says_one.any() else r + 1


def binomial_tails(r: int, k: int, probs) -> tuple[np.ndarray, np.ndarray]:
    """(P[K >= k], P[K < k]) for K ~ Bin(r, p), at each p in (0, 1] of the
    1-d ``probs``.

    Each tail sums its own pmf terms exp(log C(r, j) + j log p +
    (r - j) log(1 - p)), with log C from ``math.lgamma``, so a small tail is
    never 1 minus the other.  At j = r the last term is 0, not 0 * log 0, so
    p = 1 gives pmf exactly 1 at j = r and 0 elsewhere.  The table is built
    at most ``CHUNK`` entries at a time."""
    probs = np.asarray(probs, dtype=np.float64)
    j = np.arange(r + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(r + 1)])
    log_comb = log_fact[r] - log_fact - log_fact[::-1]
    upper, lower = np.empty(probs.size), np.empty(probs.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in _row_blocks(probs.size, r + 1):
            p = probs[s, None]
            pmf = np.exp(log_comb + j * np.log(p)
                         + np.where(j == r, 0.0, (r - j) * np.log1p(-p)))
            upper[s] = pmf[:, k:].sum(axis=1)
            lower[s] = pmf[:, :k].sum(axis=1)
    return np.minimum(upper, 1.0), np.minimum(lower, 1.0)


def exact_pair_errors(p: FingerprintProtocol, m: SignMatrix) -> np.ndarray:
    """The probability that protocol p's referee errs on each pair of M, NaN
    on promise-excluded pairs.

    The referee sees K ~ Bin(r, P0) zero outcomes, P0 = 1/2 +
    <alpha_x, beta_y>^2 / 2, and says 1 iff K >= k* (``referee_threshold``).
    So the error is P[K >= k*] on f = 0 pairs and P[K < k*] on f = 1 pairs.
    The tails are computed once per distinct P0 (EQ has 2, HAM(5, 2) has 6).
    All P0 come from the squared inner-product blocks the verifier forms and
    checks, so they match ``verify`` to the bit, with no per-state check:
    ``ThresholdEmbedding`` holds its rows to the unit-norm tolerance too.
    """
    squared = np.empty(m.entries.shape)
    report = verify_threshold_embedding(p.embedding, m, out=squared)
    if not report.valid:
        raise ValueError(
            f"embedding is not valid for M (worst f=0 side {report.worst_zero_side}, "
            f"worst f=1 side {report.worst_one_side})"
        )
    support = m.entries != 0
    # Identical unit states can give <a, a>^2 = 1 + ulp; P0 is a probability.
    p_zero = np.minimum(0.5 + squared[support] / 2.0, 1.0)
    # sorted(set(...)), not np.sort, which would also page in numpy's
    # vectorized sort code: ~0.25 MiB more RSS per process.
    values = np.array(sorted(set(p_zero.tolist())))
    which = np.searchsorted(values, p_zero)
    r = p.repetitions
    upper, lower = binomial_tails(r, referee_threshold(r, p.theta), values)
    errors = np.full(m.entries.shape, np.nan)
    # -1 encodes f(x, y) = 1
    errors[support] = np.where(m.entries[support] == -1, lower[which], upper[which])
    return errors


class ProtocolRunReport(Record):
    per_pair_error: np.ndarray  # NaN on promise-excluded pairs
    max_error: float
    exact_error: float  # the worst pair's exact error, which max_error estimates


def run_protocol(p: FingerprintProtocol, m: SignMatrix, trials: int, seed) -> ProtocolRunReport:
    """Monte-Carlo error estimate of a protocol on every non-promise pair,
    beside the exact worst-pair error.

    Over ``trials`` independent runs of the protocol, the number of runs in
    which the referee errs on a pair is Bin(trials, q), where q is the pair's
    exact error (``exact_pair_errors``).  So each pair takes one draw of
    that count, which has the law of ``trials`` runs of r swap tests each;
    ``per_pair_error`` is the count over ``trials``.  One PCG64 stream from
    ``seed`` makes the draws in row-major pair order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exact = exact_pair_errors(p, m)
    support = m.entries != 0
    errors = np.full(exact.shape, np.nan)
    errors[support] = generator(seed).binomial(trials, exact[support]) / trials
    return ProtocolRunReport(
        per_pair_error=errors,
        max_error=float(errors[support].max()),
        exact_error=float(exact[support].max()),
    )
