"""Swap-test acceptance law, the referee's threshold decision, and the exact
error law of repeated fingerprinting."""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .linalg import _distinct
from .embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    _require_thresholds,
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


def _p_zero(squared):
    """P0 = 1/2 + s/2 at each squared inner product s, clipped to 1: <a, a>^2 may round above 1."""
    return np.minimum(0.5 + squared / 2.0, 1.0)


def swap_test_prob(alpha, beta) -> float:
    """Probability of outcome 0: 1/2 + <alpha, beta>^2 / 2 (``_p_zero``)."""
    a = np.asarray(alpha, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    _require_unit_rows("alpha", np.atleast_2d(a))
    _require_unit_rows("beta", np.atleast_2d(b))
    return float(_p_zero(float(a @ b) ** 2))


def required_repetitions(delta0: float, delta1: float, eps: float) -> int:
    """Hoeffding-sufficient repetition count ceil(8 ln(2/eps) / (delta1-delta0)^2).

    The referee's estimate 2 p_hat - 1 of the squared inner product must land
    on the correct side of the midpoint, i.e. p_hat must deviate by less than
    (delta1-delta0)/4; the constant 8 follows.  A count past float64 is refused.
    """
    _require_thresholds(delta0, delta1)
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    gap = delta1 - delta0
    try:  # ln 2 - ln eps is finite where 2/eps overflows, but gap**2 may underflow to 0
        return math.ceil(8.0 * (math.log(2.0) - math.log(eps)) / gap**2)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"the Hoeffding count at gap {gap}, eps {eps} exceeds float64") from None


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


def _log_factorials(r: int) -> np.ndarray:
    """log i! for i = 0..r, from ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, range(1, r + 2)), np.float64, r + 1)


def _binomial_pmf(log_fact: np.ndarray, p: np.ndarray) -> np.ndarray:
    """P[K = j] for K ~ Bin(r, p), r = log_fact.size - 1, at each p of the
    (n, 1) column ``p`` and each count j in 0..r, from the log factorials
    0..r (``_log_factorials``).

    Each term is exp(log C(r, j) + j log p + (r - j) log(1 - p)).  At j = 0
    and at j = r the term of exponent 0 is 0, not 0 * log 0, so p = 0 and
    p = 1 put pmf exactly 1 on j = 0 and j = r."""
    r = log_fact.size - 1
    j = np.arange(r + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        successes = j * np.log(p)
        failures = (r - j) * np.log1p(-p)
    successes[:, 0] = 0.0
    failures[:, -1] = 0.0
    return np.exp(log_fact[r] - log_fact[j] - log_fact[r - j] + successes + failures)


def binomial_tails(r: int, k: int, probs) -> tuple[np.ndarray, np.ndarray]:
    """(P[K >= k], P[K < k]) for K ~ Bin(r, p), at each p in [0, 1] of the
    1-d ``probs``.  Each tail sums its own terms of ``_binomial_pmf``, so a
    small tail is never 1 minus the other.  The pmf table is built at most
    ``CHUNK`` entries at a time."""
    probs = np.asarray(probs, dtype=np.float64)
    log_fact = _log_factorials(r)
    upper, lower = np.empty(probs.size), np.empty(probs.size)
    for s in _row_blocks(probs.size, r + 1):
        pmf = _binomial_pmf(log_fact, probs[s, None])
        upper[s] = pmf[:, k:].sum(axis=1)
        lower[s] = pmf[:, :k].sum(axis=1)
    return np.minimum(upper, 1.0), np.minimum(lower, 1.0)


def _pair_groups(p: FingerprintProtocol, m: SignMatrix):
    """(pair_group, q): each pair's group, -1 on promise pairs, in the
    narrowest signed type holding -1 and every index; and each group's exact error.

    The referee sees K ~ Bin(r, P0) zero outcomes (``_p_zero``) and says 1
    iff K >= k* (``referee_threshold``).  A group is one distinct signed P0,
    ascending: +P0 for f = 0 pairs, which err with P[K >= k*], and -P0 for
    f = 1 pairs, which err with P[K < k*].  So the tails are computed once per
    group (EQ has 2, HAM(5, 2) has 6).  The pairs are grouped on the
    verifier's one walk, from each block of squares it reads, so every P0
    matches ``verify`` to the bit with no per-state check: the states are unit."""
    local = []  # each block's slice, its distinct keys, and each of its pairs' index into them

    def group(s: slice, squares: np.ndarray) -> None:
        # the signed P0, 0 on promise pairs: P0 >= 1/2, so the sign is exact and tells f
        key = _p_zero(squares) * m.entries[s]
        distinct = _distinct(key.ravel())
        local.append((s, distinct, np.searchsorted(distinct, key).astype(
            np.min_scalar_type(distinct.size))))

    report = verify_threshold_embedding(p.embedding, m, group)
    if not report.valid:
        raise ValueError(f"embedding is not valid for M (worst f=0 side "
                         f"{report.worst_zero_side}, worst f=1 side {report.worst_one_side})")
    keys = _distinct(np.concatenate([distinct for _, distinct, _ in local]))
    keys = keys[keys != 0]  # promise pairs form no group
    pair_group = np.empty(m.entries.shape, np.min_scalar_type(-keys.size))
    for s, distinct, at in local:
        pair_group[s] = np.where(distinct == 0, -1, np.searchsorted(keys, distinct))[at]
    r = p.repetitions
    upper, lower = binomial_tails(r, referee_threshold(r, p.theta), np.abs(keys))
    return pair_group, np.where(keys < 0, lower, upper)


def exact_pair_errors(p: FingerprintProtocol, m: SignMatrix) -> np.ndarray:
    """The probability that protocol p's referee errs on each pair of M, NaN
    on promise-excluded pairs: P[K >= k*] on f = 0 pairs and P[K < k*] on
    f = 1 pairs, for the referee's count K of zero outcomes
    (``_pair_groups``)."""
    pair_group, q = _pair_groups(p, m)
    return np.append(q, np.nan)[pair_group]  # index -1 reads the NaN


class ProtocolRunReport(Record):
    pair_group: np.ndarray  # each pair's index into group_error, -1 on promise pairs
    group_error: np.ndarray  # the exact error of each group of pairs
    exact_error: float  # the worst pair's exact error


def run_protocol(p: FingerprintProtocol, m: SignMatrix, trials: int) -> ProtocolRunReport:
    """The exact error law of a protocol on every non-promise pair, one
    error per group of pairs (``_pair_groups``): pair (x, y) errs with
    probability ``group_error[pair_group[x, y]]``, which is
    ``exact_pair_errors(p, m)[x, y]`` to the bit.

    ``trials``, the number of protocol runs that a Monte-Carlo estimate
    would take, must be >= 1; the exact law does not depend on it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pair_group, q = _pair_groups(p, m)
    return ProtocolRunReport(pair_group, q, float(q.max()))  # every group holds a pair
