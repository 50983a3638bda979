"""Johnson-Lindenstrauss random projection and distortion verification."""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from ._rng import generator, signs
from .embeddings import _row_blocks, _worst_pair


def jl_dimension(n: int, eps: float) -> int:
    """Target dimension 4 ln(N) / (eps^2/2 - eps^3/3) for N points."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    return math.ceil(4.0 * math.log(n) / (eps**2 / 2.0 - eps**3 / 3.0))


def project_vectors(vectors, d: int, seed) -> np.ndarray:
    """Apply one random linear map to all vectors.

    The map is a d x D matrix of independent +-1/sqrt(d) entries, one stream
    byte each (``_rng.signs``): by Achlioptas (2003) it meets the JL
    guarantee at the target dimension ``jl_dimension`` gives.  It is drawn
    and applied as +-1 entries a block of a multiple of 4 rows at a time, so
    that every block reads whole words of the stream and the map is the one a
    single d x D draw gives; the product is scaled by 1/sqrt(d) once.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("expected a nonempty list of equal-dimension vectors")
    big_d = arr.shape[1]
    if not (1 <= d <= big_d):
        raise ValueError(f"target dimension {d} must lie in [1, {big_d}]")
    rng = generator(seed)
    projected = np.empty((arr.shape[0], d))
    for groups in _row_blocks(-(-d // 4), 4 * big_d):  # blocks of 4-row groups
        s = slice(4 * groups.start, min(4 * groups.stop, d))
        block = signs(rng, (s.stop - s.start) * big_d).reshape(-1, big_d)
        projected[:, s] = arr @ block.T
    projected /= math.sqrt(d)
    return projected


class DistortionReport(Record):
    ok: bool
    worst_pair: tuple[int, int]
    max_distortion: float
    max_inner_product_error: float


def verify_distortion(vectors, projected, eps: float) -> DistortionReport:
    """Check all pairwise squared distances lie within (1 +- eps).

    The zero vector is appended (as a last index, never stacked), so vector
    norms are covered by the pairwise check.  The worst additive
    inner-product error is reported too; by the polarization identity
    <u,v> = (|u|^2 + |v|^2 - |u-v|^2)/2 it is controlled by the same
    distortion.  The Gram and distance matrices are formed one block of rows
    at a time; ties go to the first pair in row-major order.
    """
    if not 0.0 < eps < math.inf:  # a NaN eps fails too
        raise ValueError(f"eps must be a finite positive number, got {eps}")
    v = np.asarray(vectors, dtype=np.float64)
    pv = np.asarray(projected, dtype=np.float64)
    if v.ndim != 2 or pv.ndim != 2 or v.shape[0] != pv.shape[0] or v.shape[0] < 1:
        raise ValueError("vector lists must be 2-d, nonempty and of equal length")
    count = v.shape[0]
    squares = [np.concatenate([(a[s] * a[s]).sum(axis=1) for s in _row_blocks(*a.shape)])
               for a in (v, pv)]

    def distances(a: np.ndarray, sq: np.ndarray, s: slice) -> tuple[np.ndarray, np.ndarray]:
        # rows s of the Gram matrix and of the squared distances, whose last
        # column is the distance to the zero vector, |a_i|^2
        gram = a[s] @ a.T
        d = np.empty((gram.shape[0], count + 1))
        np.maximum(sq[s, None] + sq[None, :] - 2.0 * gram, 0.0, out=d[:, :count])
        d[:, count] = sq[s]
        return gram, d

    worst, ip_errors = None, [0.0]  # the zero vector's Gram entries are exact zeros
    # a block's eight live matrices of its rows' pairs take at most CHUNK entries
    for s in _row_blocks(count, 8 * (count + 1)):
        (gv, dv), (gp, dp) = distances(v, squares[0], s), distances(pv, squares[1], s)
        ip_errors.append(np.abs(gp - gv).max())
        del gv, gp
        ratios = np.ones_like(dv)
        np.divide(dp, dv, out=ratios, where=dv > 0.0)  # coincident pairs are skipped
        distortions = np.abs(ratios - 1.0)
        # only the pairs (i, j) with i < j, i = s.start + row
        upper = np.arange(count + 1) > np.arange(s.start, s.start + dv.shape[0])[:, None]
        # never None: every row's pair with the zero vector is in upper
        worst = _worst_pair(distortions, upper, True, worst, s.start)
    max_distortion, worst_pair = worst
    return DistortionReport(
        ok=max_distortion <= eps + 1e-12,
        worst_pair=worst_pair,
        max_distortion=max_distortion,
        max_inner_product_error=float(np.max(ip_errors)),
    )
