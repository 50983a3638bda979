"""Dense real vector/matrix primitives and the two matrix norms behind the margin bounds."""

from __future__ import annotations

import numpy as np

from ._kernels import linf_to_l1_enum

MAX_ENUM_COLS = 25
# Norms whose squares stay well inside the normal float64 range.
_SAFE_NORM_MIN, _SAFE_NORM_MAX = 1e-150, 1e150


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def unit_rows(v) -> np.ndarray:
    """The rows of ``v`` scaled to unit norm; a zero row stays zero.  A row
    whose sum of squares leaves the normal float64 range (lost to subnormals,
    or overflowed) is first divided by its largest entry."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    odd = ~((_SAFE_NORM_MIN < norms) & (norms < _SAFE_NORM_MAX))[:, 0]
    if odd.any():
        v = v.copy()
        peak = np.abs(v[odd]).max(axis=1, keepdims=True)
        v[odd] /= np.where(peak > 0.0, peak, 1.0)
        norms[odd] = np.linalg.norm(v[odd], axis=1, keepdims=True)
    return v / np.where(norms > 0.0, norms, 1.0)


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
    oracle).  Refuses more than ``MAX_ENUM_COLS`` columns.  Since
    ||M||_{inf->1} = ||M^T||_{inf->1}, the signs range over the smaller side.
    """
    a = as_matrix(m)
    if a.shape[1] > MAX_ENUM_COLS:
        raise ValueError(
            f"exhaustive enumeration refused for {a.shape[1]} > {MAX_ENUM_COLS} columns"
        )
    if a.shape[0] < a.shape[1]:
        a = a.T
    return linf_to_l1_enum(a)
