"""Dense real vector/matrix primitives and the two matrix norms behind the margin bounds."""

from __future__ import annotations

import math

import numpy as np

from ._kernels import linf_to_l1_enum

MAX_ENUM_COLS = 25
# Entries per step of every chunked pass (row blocks, binomial_tails, _distinct,
# io's float blocks): a pass's temporaries stay small next to its input.
CHUNK = 1 << 16


def _distinct(values: np.ndarray, cap: float = math.inf) -> np.ndarray | None:
    """The distinct entries of the 1-d ``values`` in ascending order, or None
    past ``cap`` of them.  Each ``CHUNK`` is merged in by a plain sort: numpy's
    set routines would import numpy.ma, 6-7 ms of CLI start-up."""
    distinct = values[:0]
    for start in range(0, values.size, CHUNK):
        merged = np.sort(np.concatenate([distinct, values[start:start + CHUNK]]))
        distinct = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
        if distinct.size > cap:
            return None
    return distinct


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def unit_allowance(d: int) -> float:
    """|fl||x|| - 1| for a d-entry row x rounding a unit vector, u = eps/2: u
    from x, d*u/2 from a d-term sum of squares under the root, u from the root:
    (d/2 + 2)*u.  A norm bound L scales it by L."""
    return (d + 4) * math.ulp(1.0) / 4


def dot_allowance(d: int, squared: bool = False) -> float:
    """How far a computed product of d-entry rows may exceed the exact one of
    their directions: d*u from the sum, (d + 4)*u from two norms within
    ``unit_allowance`` of 1, so a = (d + 2)*eps.  Squared, |p^2 - q^2| <=
    a*(2 + a) for |q| <= 1 and the square rounds by u: 2a + eps in all."""
    a = (d + 2) * math.ulp(1.0)
    return 2 * a + math.ulp(1.0) if squared else a


def unit_rows(v) -> np.ndarray:
    """The rows of ``v`` scaled to unit norm; a zero row stays zero.  Nothing
    guards a squared norm that underflows or overflows: the one caller's rows
    (the factored margin start) stay far from both."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
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
    oracle).  Since ||M||_{inf->1} = ||M^T||_{inf->1}, the signs range over
    the smaller side, and more than ``MAX_ENUM_COLS`` there is refused.  A
    sign matrix is summed exactly in int8, each total in int16 or int64 (see
    ``linf_to_l1_enum``); any other matrix in float64.
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
