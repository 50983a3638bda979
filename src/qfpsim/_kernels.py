"""Hot numeric kernels, one numpy implementation each."""

from __future__ import annotations

import numpy as np

# Always False: the kernels are plain numpy.  Kept because
# ``perfbench/run.py`` records ``qfpsim.USING_NUMBA`` in its environment block.
USING_NUMBA = False


def linf_to_l1_enum(m: np.ndarray) -> float:
    """Max ||Mv||_1 over v in {-1,+1}^cols by chunked vectorized enumeration.

    Only half of the hypercube is visited since v and -v give the same value.
    """
    cols = m.shape[1]
    half = 1 << (cols - 1)
    chunk = min(half, 1 << 14)
    shifts = np.arange(cols, dtype=np.uint32)
    mt = np.ascontiguousarray(m.T)
    best = 0.0
    for start in range(0, half, chunk):
        codes = np.arange(start, min(start + chunk, half), dtype=np.uint32)
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1)
        best = max(best, float(np.abs(signs @ mt).sum(axis=1).max()))
    return best


def margin_ascent(m, alphas0, betas0, iterations, step, decay, temp_hi, temp_lo):
    """Soft-min gradient ascent for max-margin arrangements.

    Maximizes a softmin surrogate of min over nonzero (x,y) of
    M[x,y] * <alpha_x, beta_y> over unit vectors, renormalizing every step.
    Returns ``(alphas, betas, margin)`` for the best arrangement seen, judged
    by its exact margin.
    """
    mask = m != 0.0
    alphas = alphas0.copy()
    betas = betas0.copy()
    best_a, best_b, best = alphas.copy(), betas.copy(), -np.inf
    anneal = (temp_lo / temp_hi) ** (1.0 / max(iterations - 1, 1))
    temp = temp_hi
    for _ in range(iterations + 1):
        prods = alphas @ betas.T
        margins = np.where(mask, m * prods, np.inf)
        worst = float(margins.min())
        if worst > best:
            best = worst
            best_a, best_b = alphas.copy(), betas.copy()
        w = np.where(mask, np.exp(-(margins - worst) / temp), 0.0)
        wm = (w / w.sum()) * m
        new_a = alphas + step * (wm @ betas)
        new_b = betas + step * (wm.T @ alphas)
        alphas = new_a / np.linalg.norm(new_a, axis=1, keepdims=True)
        betas = new_b / np.linalg.norm(new_b, axis=1, keepdims=True)
        step *= decay
        temp *= anneal
    return best_a, best_b, best
