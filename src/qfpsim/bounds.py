"""Upper bounds on the achievable margin of a sign matrix, a deterministic
max-margin search for lower-bound witnesses, and the derived communication
lower bounds."""

from __future__ import annotations

import math

import numpy as np

from ._kernels import margin_ascent
from ._record import Record
from .embeddings import Realization, SignMatrix
from .linalg import MAX_ENUM_COLS, dot_allowance, linf_to_l1_norm, operator_norm, unit_rows

# Krivine's upper bound on Grothendieck's constant; a fixed published value
# keeps outputs reproducible.
GROTHENDIECK_K = 1.7822139781

# The witness ascent's schedule: iterations, step, step decay, and the
# soft-min temperature annealed from the first value to the second.
ASCENT_SCHEDULE = (500, 0.2, 0.999**4, 1.0, 0.01)


def forster_bound(m: SignMatrix) -> float:
    """Margin upper bound ||M|| sqrt(|X| |Y|) / nnz(M), clamped to 1.  For unit
    rows, sum M_xy <alpha_x, beta_y> <= ||M|| sqrt(|X| |Y|), while a margin-gamma
    realization makes it >= gamma nnz(M), since promise pairs add 0."""
    norm = operator_norm(m.dense())
    size, nnz = m.rows * m.cols, int(np.count_nonzero(m.entries))
    # size / nnz is exactly 1.0 on a total matrix: ||M|| / sqrt(|X| |Y|) bit for bit
    return min(1.0, norm / math.sqrt(size) * (size / nnz))


def linial_bound(m: SignMatrix) -> float:
    """Margin upper bound K_G ||M||_{inf->1} / nnz(M), clamped to 1, by the same
    argument with Grothendieck's inequality in place of Cauchy-Schwarz."""
    raw = GROTHENDIECK_K * linf_to_l1_norm(m.dense()) / int(np.count_nonzero(m.entries))
    return min(1.0, raw)


def repetition_lower_bound(gamma_upper: float) -> float:
    """Asymptotic swap-test repetition count 1/gamma^2 (constant omitted)."""
    if not (0.0 < gamma_upper <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma_upper}")
    return 1.0 / gamma_upper**2


def qent_lower_bound(gamma_upper: float) -> float:
    """Entanglement-assisted communication lower bound (1/4) log2(1/gamma),
    valid up to an additive constant."""
    if not (0.0 < gamma_upper <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma_upper}")
    return 0.25 * math.log2(1.0 / gamma_upper)


def _factored_start(md: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of U sqrt(S) and V sqrt(S) from the SVD M = U S V^T, with one
    zero column appended.  <alpha_x, beta_y> is then M_xy over the two row
    norms, so every constrained pair starts separated.  A row with no nonzero
    entry in M starts at e_1."""
    u, s, vt = np.linalg.svd(md, full_matrices=False)
    rows = np.zeros((sum(md.shape), s.size + 1))
    rows[:, :-1] = np.vstack([u, vt.T]) * np.sqrt(s)
    rows = unit_rows(rows)
    rows[~np.concatenate([md.any(axis=1), md.any(axis=0)])] = np.eye(1, rows.shape[1])
    return rows[: md.shape[0]], rows[md.shape[0] :]


def exit_allowance(d: int) -> float:
    """How far below the computed Forster bound the witness ascent may stop, at
    dimension d = n + 1, n = min(|X|, |Y|): ``dot_allowance(d)`` plus Forster's
    error.  A sign matrix's Gram matrix is exact, LAPACK's top eigenvalue errs
    by <= p(n)*u*||G|| (p(n) taken as n), the square root halves that and five
    roundings add 5u: (n/2 + 5)*u <= (d + 3)*eps.  Too small only stops later."""
    return dot_allowance(d) + (d + 3) * math.ulp(1.0)


def maximize_margin_heuristic(m: SignMatrix) -> Realization:
    """Max-margin witness by one soft-min gradient ascent from the factored
    start, renormalizing to unit vectors each step.  The witness depends on M
    alone and lives in dimension min(|X|, |Y|) + 1.  Its gamma is the computed
    margin of the best arrangement seen less ``dot_allowance`` of that
    dimension, so it never exceeds the exact margin of the returned vectors.
    The ascent stops at ``forster_bound`` less ``exit_allowance``, which only
    rounding can beat; below that no optimality is claimed.  Raises when no
    separating arrangement is found."""
    md = np.ascontiguousarray(m.dense())
    start = _factored_start(md)
    target = forster_bound(m) - exit_allowance(start[0].shape[1])
    alphas, betas, achieved = margin_ascent(md, *start, *ASCENT_SCHEDULE, target)
    gamma = achieved - dot_allowance(alphas.shape[1])
    if gamma <= 0.0:
        raise RuntimeError(
            f"no separating arrangement found at dimension {alphas.shape[1]} "
            f"(best margin {achieved})"
        )
    return Realization(alphas, betas, min(gamma, 1.0))


class MarginReport(Record):
    forster: float
    linial: float | None
    upper: float
    heuristic_lower: float | None
    qent_lower_bits: float
    repetition_lower: float
    gamma_source: str  # always "upper_bound"; kept for readers that look it up


def margin_report(m: SignMatrix, heuristic: bool = False) -> MarginReport:
    """Assemble the full bound report for any sign matrix, promise or total.
    The asymptotic lower bounds come from the margin upper bound alone."""
    forster = forster_bound(m)
    linial = linial_bound(m) if min(m.rows, m.cols) <= MAX_ENUM_COLS else None
    upper = forster if linial is None else min(forster, linial)
    return MarginReport(
        forster=forster,
        linial=linial,
        upper=upper,
        heuristic_lower=maximize_margin_heuristic(m).gamma if heuristic else None,
        qent_lower_bits=qent_lower_bound(upper),
        repetition_lower=repetition_lower_bound(upper),
        gamma_source="upper_bound",
    )
