"""Swap-test acceptance law, the referee's threshold decision, and the exact
error law of repeated fingerprinting with a Monte-Carlo estimate beside it."""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from ._rng import uniforms
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
from .linalg import CHUNK


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


# The sampler takes CHUNK / MIN_RUN draws at a time, so that each step's
# table has room for at least MIN_RUN entries a group.
MIN_RUN = 16


def _log_factorials(r: int) -> np.ndarray:
    """log i! for i = 0..r, from ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, range(1, r + 2)), np.float64, r + 1)


def _binomial_pmf(log_fact: np.ndarray, p: np.ndarray, start: int, stop: int) -> np.ndarray:
    """P[K = j] for K ~ Bin(r, p), r = log_fact.size - 1, at each p of the
    (n, 1) column ``p`` and each count j in [start, stop), from the log
    factorials 0..r (``_log_factorials``).

    Each term is exp(log C(r, j) + j log p + (r - j) log(1 - p)).  At j = 0
    and at j = r the term of exponent 0 is 0, not 0 * log 0, so p = 0 and
    p = 1 put pmf exactly 1 on j = 0 and j = r."""
    r = log_fact.size - 1
    j = np.arange(start, stop)
    with np.errstate(divide="ignore", invalid="ignore"):
        successes = j * np.log(p)
        failures = (r - j) * np.log1p(-p)
    if start == 0:
        successes[:, 0] = 0.0
    if stop == r + 1:
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
        pmf = _binomial_pmf(log_fact, probs[s, None], 0, r + 1)
        upper[s] = pmf[:, k:].sum(axis=1)
        lower[s] = pmf[:, :k].sum(axis=1)
    return np.minimum(upper, 1.0), np.minimum(lower, 1.0)


def _binomial_draws(trials: int, q: np.ndarray, group: np.ndarray, order: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """Draw i of Bin(trials, q[group[i]]), by inverting its CDF F at u[i] in
    [0, 1): the number of counts k < trials with F(k) <= u[i].  So q = 0
    gives 0, q = 1 gives ``trials``, and no rounding of F gives trials + 1.
    ``order`` lists the draws by group.

    This is inversion by sequential search, a run of counts at a time, over
    the draws in slices of CHUNK / MIN_RUN.  Each step extends F, a running
    sum of ``_binomial_pmf`` terms (so its bits do not depend on the run),
    for the groups of the draws that have passed every count so far, and
    each of those draws bisects its group's run.  A run and the sum before
    it fill a power-of-two row, as wide as the step's groups leave room for
    in CHUNK entries and no wider than the counts left need: so few groups
    take one step, and many groups pay only for the counts they reach."""
    log_fact = _log_factorials(trials)
    counts = np.empty(group.size, dtype=np.intp)
    carry = np.empty(q.size)  # F(c - 1) of each group at step c
    for s in _row_blocks(group.size, MIN_RUN):
        draws = order[s]
        ids, target = group[draws], u[draws]
        found = np.zeros(draws.size, dtype=np.intp)
        live = np.arange(draws.size)  # the draws of at least c
        c = 0
        while c < trials and live.size:
            live_ids = ids[live]  # nondecreasing, as ``order`` is by group
            new = np.concatenate([[True], live_ids[1:] != live_ids[:-1]])
            rows = live_ids[new]
            width = 1 << min((CHUNK // rows.size).bit_length() - 1, (trials - c).bit_length())
            stop = min(c + width - 1, trials)
            # F(c - 1 .. stop - 1), then inf: no count from trials on is passed
            cdf = np.full((rows.size, width), np.inf)
            cdf[:, 0] = carry[rows] if c else 0.0
            cdf[:, 1:stop - c + 1] = _binomial_pmf(log_fact, q[rows, None], c, stop)
            np.cumsum(cdf, axis=1, out=cdf)
            carry[rows] = cdf[:, stop - c]
            # each draw starts on its group's F(c - 1) <= u and moves right
            # while the entry ahead is <= u
            flat, pos, bar = cdf.ravel(), (np.cumsum(new) - 1) * width, target[live]
            step = width // 2
            while step:
                pos += step * (flat[pos + step] <= bar)
                step //= 2
            passed = pos % width
            found[live] = c + passed
            live = live[passed == stop - c]
            c = stop
        counts[draws] = found
    return counts


def _pair_groups(p: FingerprintProtocol, m: SignMatrix):
    """(support, group, order, q): the mask of M's pairs outside the
    promise; the group of each such pair, in row-major order; those pairs
    listed by group; and each group's exact error.

    The referee sees K ~ Bin(r, P0) zero outcomes, P0 = 1/2 +
    <alpha_x, beta_y>^2 / 2, and says 1 iff K >= k* (``referee_threshold``).
    A group is one distinct signed P0: +P0 for f = 0 pairs, which err with
    P[K >= k*], and -P0 for f = 1 pairs, which err with P[K < k*].  So the
    tails are computed once per group (EQ has 2, HAM(5, 2) has 6).  All P0
    come from the squared inner-product blocks the verifier forms and
    checks, so they match ``verify`` to the bit, with no per-state check:
    ``ThresholdEmbedding`` holds its rows to the unit-norm tolerance too."""
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
    # -1 encodes f(x, y) = 1; P0 >= 1/2, so the sign is exact and tells f
    key = np.where(m.entries[support] == -1, -p_zero, p_zero)
    order = np.argsort(key, kind="stable")  # stable: EQ's long runs of equal keys sort fast
    listed = key[order]
    new = listed[1:] != listed[:-1]
    group = np.empty(key.size, dtype=np.intp)
    group[order] = np.concatenate([[0], np.cumsum(new)])
    keys = listed[np.concatenate([[True], new])]
    r = p.repetitions
    upper, lower = binomial_tails(r, referee_threshold(r, p.theta), np.abs(keys))
    return support, group, order, np.where(keys < 0, lower, upper)


def exact_pair_errors(p: FingerprintProtocol, m: SignMatrix) -> np.ndarray:
    """The probability that protocol p's referee errs on each pair of M, NaN
    on promise-excluded pairs: P[K >= k*] on f = 0 pairs and P[K < k*] on
    f = 1 pairs, for the referee's count K of zero outcomes
    (``_pair_groups``)."""
    support, group, _, q = _pair_groups(p, m)
    errors = np.full(m.entries.shape, np.nan)
    errors[support] = q[group]
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
    ``per_pair_error`` is the count over ``trials``.  The draws invert the
    exact law's own binomial CDF (``_binomial_draws``), one per pair in
    row-major pair order, each at one double of ``_rng.uniforms(seed, n)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    support, group, order, q = _pair_groups(p, m)
    counts = _binomial_draws(trials, q, group, order, uniforms(seed, group.size))
    errors = np.full(m.entries.shape, np.nan)
    errors[support] = counts / trials
    return ProtocolRunReport(
        per_pair_error=errors,
        max_error=float(counts.max() / trials),
        exact_error=float(q.max()),  # every group holds a pair
    )
