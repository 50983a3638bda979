"""Hot numeric kernels, one numpy implementation each."""

from __future__ import annotations

import numpy as np

# Free signs on the low side of the meet-in-the-middle split, and the float64
# count a block of sums aims at (512 KiB, well inside a core's L2 cache).
_LOW_BITS = 10
_BLOCK_FLOATS = 1 << 16


def _sign_products(m: np.ndarray, start: int, stop: int) -> np.ndarray:
    """M v for the sign vectors coded start..stop-1, one per column: shape
    (rows, stop - start).  Bit k of a code set means v_k = -1."""
    codes = np.arange(start, stop, dtype=np.uint32)
    signs = 1.0 - 2.0 * ((codes >> np.arange(m.shape[1], dtype=np.uint32)[:, None]) & 1)
    return m @ signs


def linf_to_l1_enum(m: np.ndarray) -> float:
    """Max ||Mv||_1 over v in {-1,+1}^cols, meeting in the middle.

    The last sign is fixed at +1 since v and -v give the same value.  Mv splits
    as M_lo v_lo + M_hi v_hi with up to ``_LOW_BITS`` free low signs: the 2^low
    low sums are formed once, and blocks of high sums are added to all of them
    by broadcasting.  A block holds about ``_BLOCK_FLOATS`` sums, but at least
    one high sum's rows * 2^low.  Exact on integer matrices, where every sum is
    an exact integer.
    """
    rows, cols = m.shape
    low = min(cols - 1, _LOW_BITS)
    lo = _sign_products(m[:, :low], 0, 1 << low) + m[:, cols - 1 :]
    hi_cols = m[:, low : cols - 1]
    half = 1 << hi_cols.shape[1]
    block = min(half, max(1, _BLOCK_FLOATS // lo.size))
    sums = np.empty((rows, block, lo.shape[1]))
    best = 0.0
    for start in range(0, half, block):
        hi = _sign_products(hi_cols, start, min(start + block, half))
        part = sums[:, : hi.shape[1]]
        np.add(hi[:, :, None], lo[:, None, :], out=part)
        np.abs(part, out=part)
        best = max(best, float(np.add.reduce(part, 0).max()))
    return best


def margin_ascent(m, alphas0, betas0, iterations, step, decay, temp_hi, temp_lo,
                  target=np.inf):
    """Soft-min gradient ascent for max-margin arrangements.

    Maximizes a softmin surrogate of min over nonzero (x,y) of
    M[x,y] * <alpha_x, beta_y> over unit vectors, renormalizing every step.
    Returns ``(alphas, betas, margin)`` for the best arrangement seen, judged
    by its exact margin, as soon as that margin is >= ``target`` (stopping at
    step k returns what ``iterations`` = k would at the same temperatures).

    Pairs with M[x,y] = 0 carry an offset of +inf, so they never set the
    minimum and their soft-min weight comes out exactly 0; the other pairs
    carry -0.0, which leaves every float as it is.  The rows are rebound each
    step and never written in place, so the best arrangement is kept by
    reference.
    """
    off = np.where(m != 0.0, -0.0, np.inf)
    alphas = alphas0.copy()
    betas = betas0.copy()
    best_a, best_b, best = alphas, betas, -np.inf
    anneal = (temp_lo / temp_hi) ** (1.0 / max(iterations - 1, 1))
    temp = temp_hi
    for _ in range(iterations + 1):
        margins = m * (alphas @ betas.T) + off
        worst = np.minimum.reduce(margins, None)
        if worst > best:
            best, best_a, best_b = worst, alphas, betas
            if best >= target:
                break
        w = np.exp((worst - margins) / temp)
        wm = (w / np.add.reduce(w, None)) * m
        new_a = alphas + step * (wm @ betas)
        new_b = betas + step * (wm.T @ alphas)
        alphas = new_a / np.sqrt(np.add.reduce(new_a * new_a, 1, keepdims=True))
        betas = new_b / np.sqrt(np.add.reduce(new_b * new_b, 1, keepdims=True))
        step *= decay
        temp *= anneal
    return best_a, best_b, float(best)
