"""Upper bounds on the achievable margin of a sign matrix, a deterministic
max-margin search for lower-bound witnesses, and the derived communication
lower bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import margin_ascent
from .embeddings import Realization, SignMatrix
from .linalg import MAX_ENUM_COLS, linf_to_l1_norm, operator_norm, unit_rows

# Krivine's upper bound on Grothendieck's constant; a fixed published value
# keeps outputs reproducible.
GROTHENDIECK_K = 1.7822139781

# The witness ascent's fixed schedule: iterations, step, step decay, and the
# soft-min temperature annealed from the first value to the second.
ASCENT_SCHEDULE = (2000, 0.05, 0.999, 1.0, 0.01)


def _require_total(m: SignMatrix, bound: str) -> None:
    if not m.is_total:
        raise ValueError(f"{bound} is only stated for total sign matrices (no 0 entries)")


def forster_bound(m: SignMatrix) -> float:
    """Margin upper bound ||M|| / sqrt(|X| |Y|)."""
    _require_total(m, "the spectral margin bound")
    norm = operator_norm(m.dense())
    return min(1.0, norm / math.sqrt(m.rows * m.cols))


def linial_bound(m: SignMatrix) -> float:
    """Margin upper bound K_G ||M||_{inf->1} / (|X| |Y|), clamped to 1."""
    _require_total(m, "the Grothendieck margin bound")
    raw = GROTHENDIECK_K * linf_to_l1_norm(m.dense()) / (m.rows * m.cols)
    return min(1.0, raw)


def margin_upper_bound(m: SignMatrix) -> float:
    """The minimum of the available margin upper bounds."""
    _require_total(m, "margin upper bounds")
    return margin_report(m).upper


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


def _factored_start(md: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of U sqrt(S) and V sqrt(S) from the SVD M = U S V^T, cut or
    zero-padded to d columns.  At d >= rank(M), <alpha_x, beta_y> is M_xy over
    the two row norms, so every constrained pair starts separated.  A row with
    no nonzero entry in M starts at e_1.  A row that the cut to d < rank(M)
    zeroes starts at its best response: the alphas at sum_y M_xy beta_y, then
    the betas at sum_x M_xy alpha_x against the filled alphas, each made unit
    (e_1 where the sum is zero)."""
    u, s, vt = np.linalg.svd(md, full_matrices=False)
    k = min(d, s.size)
    rows = np.zeros((sum(md.shape), d))
    rows[:, :k] = np.vstack([u, vt.T])[:, :k] * np.sqrt(s[:k])
    constrained = np.concatenate([md.any(axis=1), md.any(axis=0)])
    cut = constrained & (np.linalg.norm(rows, axis=1) == 0.0)
    rows = _unit_or_e1(rows)
    rows[~constrained] = np.eye(1, d)
    alphas, betas = rows[: md.shape[0]], rows[md.shape[0] :]
    cut_a, cut_b = np.split(cut, [md.shape[0]])
    betas[cut_b] = 0.0  # an unfilled beta takes no part in the alphas' responses
    alphas[cut_a] = _unit_or_e1(md[cut_a] @ betas)
    betas[cut_b] = _unit_or_e1(md[:, cut_b].T @ alphas)
    return alphas, betas


def _unit_or_e1(v: np.ndarray) -> np.ndarray:
    """The rows of ``v`` scaled to unit norm; a zero row becomes e_1."""
    rows = unit_rows(v)
    rows[~rows.any(axis=1)] = np.eye(1, v.shape[1])
    return rows


def dot_allowance(d: int) -> float:
    """How far a computed margin of d-dimensional unit rows may exceed the exact
    one: a d-term dot product errs by <= d*u (u = eps/2), and each row's norm
    is within (d/2 + 2)*u of 1, so (2d + 4)*u = (d + 2)*eps in all."""
    return (d + 2) * math.ulp(1.0)


def maximize_margin_heuristic(m: SignMatrix, d: int) -> Realization:
    """Max-margin witness by one soft-min gradient ascent from the factored
    start, renormalizing to unit vectors each step.  The witness depends on M
    and d alone.  Its gamma is the computed margin of the best arrangement
    seen less ``dot_allowance(d)``, so it never exceeds the exact margin of the
    returned vectors; no optimality is claimed.  Raises when no separating
    arrangement is found."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    md = np.ascontiguousarray(m.dense())
    alphas, betas, achieved = margin_ascent(md, *_factored_start(md, d), *ASCENT_SCHEDULE)
    gamma = achieved - dot_allowance(d)
    if gamma <= 0.0:
        raise RuntimeError(
            f"no separating arrangement found at dimension {d} (best margin {achieved})"
        )
    return Realization(alphas, betas, min(gamma, 1.0))


@dataclass(frozen=True)
class MarginReport:
    forster: float | None
    linial: float | None
    upper: float | None
    heuristic_lower: float | None
    qent_lower_bits: float
    repetition_lower: float
    gamma_source: str  # which gamma fed the asymptotic lower bounds


def margin_report(m: SignMatrix, heuristic: bool = False, d: int | None = None) -> MarginReport:
    """Assemble the full bound report for a sign matrix.

    Spectral bounds require a total matrix; for promise matrices only the
    heuristic witness is available and the asymptotic lower bounds are
    derived from it instead.  The witness is searched at dimension ``d``
    (default: the smaller side plus one, where the factored start separates).
    """
    forster = linial = upper = None
    if m.is_total:
        forster = forster_bound(m)
        linial = linial_bound(m) if min(m.rows, m.cols) <= MAX_ENUM_COLS else None
        upper = min(v for v in (forster, linial) if v is not None)
    heuristic_lower = None
    if heuristic:
        dim = d if d is not None else min(m.rows, m.cols) + 1
        heuristic_lower = maximize_margin_heuristic(m, dim).gamma
    if upper is not None:
        gamma, source = upper, "upper_bound"
    elif heuristic_lower is not None:
        gamma, source = heuristic_lower, "heuristic_lower"
    else:
        raise ValueError(
            "promise matrix: spectral bounds refuse and no heuristic was requested"
        )
    return MarginReport(
        forster=forster,
        linial=linial,
        upper=upper,
        heuristic_lower=heuristic_lower,
        qent_lower_bits=qent_lower_bound(gamma),
        repetition_lower=repetition_lower_bound(gamma),
        gamma_source=source,
    )
