"""Dense real vector/matrix primitives and the two matrix norms behind the margin bounds."""

from __future__ import annotations

import numpy as np

from ._kernels import linf_to_l1_enum

MAX_ENUM_COLS = 25
# Norms whose squares stay well inside the normal float64 range.
_SAFE_NORM_MIN, _SAFE_NORM_MAX = 1e-150, 1e150
# Entries per step of unit_rows: the squares np.linalg.norm forms stay small
# next to the rows themselves.
_NORM_CHUNK = 1 << 16


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def unit_rows(v, out=None) -> np.ndarray:
    """The rows of ``v`` scaled to unit norm; a zero row stays zero.  A row
    whose sum of squares leaves the normal float64 range (lost to subnormals,
    or overflowed) is first divided by its largest entry.  Norms are taken over
    chunks of rows, each row with the same arithmetic as in one call.  The
    result goes to ``out`` if given, which may be ``v`` itself."""
    v = np.asarray(v, dtype=np.float64)
    step = max(1, _NORM_CHUNK // max(v.shape[1], 1))
    norms = np.empty((v.shape[0], 1))
    with np.errstate(over="ignore"):
        for start in range(0, v.shape[0], step):
            norms[start:start + step] = np.linalg.norm(v[start:start + step], axis=1,
                                                       keepdims=True)
    odd = ~((_SAFE_NORM_MIN < norms) & (norms < _SAFE_NORM_MAX))[:, 0]
    if odd.any():
        peak = np.abs(v[odd]).max(axis=1, keepdims=True)
        rescaled = v[odd] / np.where(peak > 0.0, peak, 1.0)
        norms[odd] = np.linalg.norm(rescaled, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    out = np.divide(v, safe, out=out)
    if odd.any():
        out[odd] = rescaled / safe[odd]
    return out


def operator_norm(m) -> float:
    """Largest singular value: the square root of the top eigenvalue of the
    Gram matrix on the smaller side, computed by LAPACK (``eigvalsh``)."""
    a = as_matrix(m)
    if a.shape[0] < a.shape[1]:
        a = a.T
    return float(np.sqrt(max(np.linalg.eigvalsh(a.T @ a)[-1], 0.0)))


def linf_to_l1_norm(m) -> float:
    """Exact sup of ||Mv||_1 over the ell_infinity unit ball.

    The maximum of this convex objective is attained at a vertex, so it is
    computed by exhaustive enumeration of sign vectors (exact, usable as an
    oracle).  Since ||M||_{inf->1} = ||M^T||_{inf->1}, the signs range over
    the smaller side, and more than ``MAX_ENUM_COLS`` there is refused.
    """
    a = as_matrix(m)
    if a.shape[0] < a.shape[1]:
        a = a.T
    if a.shape[1] > MAX_ENUM_COLS:
        raise ValueError(
            f"exhaustive enumeration refused for a smaller side of "
            f"{a.shape[1]} > {MAX_ENUM_COLS}"
        )
    return linf_to_l1_enum(a)
