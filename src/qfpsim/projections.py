"""Johnson-Lindenstrauss random projection and distortion verification."""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from ._rng import generator


def jl_dimension(n: int, eps: float) -> int:
    """Target dimension 4 ln(N) / (eps^2/2 - eps^3/3) for N points."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    return math.ceil(4.0 * math.log(n) / (eps**2 / 2.0 - eps**3 / 3.0))


def project_vectors(vectors, d: int, seed) -> np.ndarray:
    """Apply one random linear map to all vectors.

    The map is a d x D matrix of independent standard Gaussians scaled by
    1/sqrt(d): the standard JL surrogate for projecting onto a random
    d-dimensional subspace, with identical guarantees up to constants.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("expected a nonempty list of equal-dimension vectors")
    big_d = arr.shape[1]
    if not (1 <= d <= big_d):
        raise ValueError(f"target dimension {d} must lie in [1, {big_d}]")
    g = generator(seed).standard_normal((d, big_d)) / math.sqrt(d)
    return arr @ g.T


class DistortionReport(Record):
    ok: bool
    worst_pair: tuple[int, int]
    max_distortion: float
    max_inner_product_error: float


def verify_distortion(vectors, projected, eps: float) -> DistortionReport:
    """Check all pairwise squared distances lie within (1 +- eps).

    The zero vector is appended internally, so vector norms are covered by the
    pairwise check.  The worst additive inner-product error is reported too;
    by the polarization identity <u,v> = (|u|^2 + |v|^2 - |u-v|^2)/2 it is
    controlled by the same distortion.
    """
    if not 0.0 < eps < math.inf:  # a NaN eps fails too
        raise ValueError(f"eps must be a finite positive number, got {eps}")
    v = np.asarray(vectors, dtype=np.float64)
    pv = np.asarray(projected, dtype=np.float64)
    if v.ndim != 2 or pv.ndim != 2 or v.shape[0] != pv.shape[0]:
        raise ValueError("vector lists must be 2-d and of equal length")
    v = np.vstack([v, np.zeros(v.shape[1])])
    pv = np.vstack([pv, np.zeros(pv.shape[1])])

    gv, gp = v @ v.T, pv @ pv.T

    def pairwise_sq(a: np.ndarray, gram: np.ndarray) -> np.ndarray:
        sq = (a * a).sum(axis=1)
        return np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)

    dv, dp = pairwise_sq(v, gv), pairwise_sq(pv, gp)
    iu = np.triu_indices(v.shape[0], k=1)
    ratios = np.ones(len(iu[0]))
    nondegenerate = dv[iu] > 0.0  # coincident pairs are skipped
    ratios[nondegenerate] = dp[iu][nondegenerate] / dv[iu][nondegenerate]
    distortions = np.abs(ratios - 1.0)
    worst = int(np.argmax(distortions))
    worst_pair = (int(iu[0][worst]), int(iu[1][worst]))
    max_distortion = float(distortions[worst])

    ip_err = float(np.abs(gp - gv).max())
    return DistortionReport(
        ok=max_distortion <= eps + 1e-12,
        worst_pair=worst_pair,
        max_distortion=max_distortion,
        max_inner_product_error=ip_err,
    )
