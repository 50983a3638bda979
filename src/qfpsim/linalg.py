"""Dense real vector/matrix primitives and the two matrix norms behind the margin bounds."""

from __future__ import annotations

import numpy as np

from ._kernels import linf_to_l1_enum

MAX_ENUM_COLS = 25
# Norms whose squares stay well inside the normal float64 range.
_SAFE_NORM_MIN, _SAFE_NORM_MAX = 1e-150, 1e150


def as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-d vector with at least one entry, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def inner(u, v) -> float:
    """Standard dot product; errors on dimension mismatch."""
    a, b = as_vector(u), as_vector(v)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(a @ b)


def normalize(v) -> np.ndarray:
    a = as_vector(v)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(a))
    if not _SAFE_NORM_MIN < nrm < _SAFE_NORM_MAX:
        # The sum of squares lost bits to subnormals (or overflowed):
        # rescale by the largest entry first.
        scale = float(np.max(np.abs(a)))
        if scale == 0.0:
            raise ValueError("cannot normalize the zero vector")
        a = a / scale
        nrm = float(np.linalg.norm(a))
    return a / nrm


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
