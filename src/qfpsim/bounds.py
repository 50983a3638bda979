"""Upper bounds on the achievable margin of a sign matrix, a heuristic
max-margin search for lower-bound witnesses, and the derived communication
lower bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import margin_ascent
from ._rng import generator, spawn
from .embeddings import Realization, SignMatrix, _renormalized
from .linalg import MAX_ENUM_COLS, linf_to_l1_norm, operator_norm

# Krivine's upper bound on Grothendieck's constant; a fixed published value
# keeps outputs reproducible.
GROTHENDIECK_K = 1.7822139781


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


def _eq_shaped(m: SignMatrix) -> bool:
    if m.rows != m.cols:
        return False
    e = m.entries
    return bool(np.all(np.diag(e) == -1) and np.all(e[~np.eye(m.rows, dtype=bool)] == 1))


def _eq_seed_vectors(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The explicit (1, +-sqrt(2) e_x)/sqrt(3) arrangement with margin 1/3."""
    alphas = np.zeros((n, d))
    betas = np.zeros((n, d))
    alphas[:, 0] = 1.0
    betas[:, 0] = 1.0
    for i in range(n):
        alphas[i, 1 + i] = math.sqrt(2.0)
        betas[i, 1 + i] = -math.sqrt(2.0)
    return alphas / math.sqrt(3.0), betas / math.sqrt(3.0)


def maximize_margin_heuristic(
    m: SignMatrix,
    d: int,
    seed,
    restarts: int = 8,
    iterations: int = 2000,
    step: float = 0.05,
    decay: float = 0.999,
    softmin_temp: tuple[float, float] = (1.0, 0.01),
) -> Realization:
    """Best-effort max-margin witness by soft-min gradient ascent.

    Runs ``restarts`` random starts (plus one deterministic start seeded by
    the explicit equality construction when M is EQ-shaped and d allows it),
    renormalizing to unit vectors each step.  The returned realization's
    gamma is the exact margin of the best arrangement, as the ascent kernel
    computes it; no optimality is claimed.  Raises when no separating
    arrangement is found.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    md = np.ascontiguousarray(m.dense())
    temp_hi, temp_lo = softmin_temp

    starts: list[tuple[np.ndarray, np.ndarray]] = []
    if _eq_shaped(m) and d >= m.rows + 1:
        starts.append(_eq_seed_vectors(m.rows, d))
    for child in spawn(seed, restarts):
        rng = generator(child)
        a = rng.standard_normal((m.rows, d))
        b = rng.standard_normal((m.cols, d))
        starts.append((_renormalized(a), _renormalized(b)))

    best_margin = -np.inf
    best_vectors = None
    for a0, b0 in starts:
        a, b, achieved = margin_ascent(
            md,
            np.ascontiguousarray(a0),
            np.ascontiguousarray(b0),
            iterations,
            step,
            decay,
            temp_hi,
            temp_lo,
        )
        if achieved > best_margin:
            best_margin = achieved
            best_vectors = (a, b)
    if best_margin <= 0.0 or best_vectors is None:
        raise RuntimeError(
            f"no separating arrangement found at dimension {d} (best margin {best_margin})"
        )
    return Realization(best_vectors[0], best_vectors[1], min(best_margin, 1.0))


@dataclass(frozen=True)
class MarginReport:
    forster: float | None
    linial: float | None
    upper: float | None
    heuristic_lower: float | None
    qent_lower_bits: float
    repetition_lower: float
    gamma_source: str  # which gamma fed the asymptotic lower bounds


def margin_report(
    m: SignMatrix,
    heuristic: bool = False,
    d: int | None = None,
    seed=0,
    **heuristic_opts,
) -> MarginReport:
    """Assemble the full bound report for a sign matrix.

    Spectral bounds require a total matrix; for promise matrices only the
    heuristic witness is available and the asymptotic lower bounds are
    derived from it instead.
    """
    forster = linial = upper = None
    if m.is_total:
        forster = forster_bound(m)
        linial = linial_bound(m) if m.cols <= MAX_ENUM_COLS else None
        upper = min(v for v in (forster, linial) if v is not None)
    heuristic_lower = None
    if heuristic:
        dim = d if d is not None else min(m.rows, m.cols) + 1
        heuristic_lower = maximize_margin_heuristic(m, dim, seed, **heuristic_opts).gamma
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
