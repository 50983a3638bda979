import itertools
import math

import numpy as np
import pytest

from qfpsim._kernels import linf_to_l1_enum, margin_ascent
from qfpsim.linalg import linf_to_l1_norm


def brute_force_linf(m):
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m.shape[1]):
        best = max(best, np.abs(m @ np.array(signs)).sum())
    return best


# Reference oracle for ``margin_ascent``: the same soft-min ascent written as
# explicit scalar loops.
def _margin_ascent_loop(m, alphas0, betas0, iterations, step, decay, temp_hi, temp_lo):
    nx, d = alphas0.shape
    ny = betas0.shape[0]
    alphas = alphas0.copy()
    betas = betas0.copy()
    best_a = alphas.copy()
    best_b = betas.copy()
    best = -1.0e300
    denom = iterations - 1 if iterations > 1 else 1
    anneal = (temp_lo / temp_hi) ** (1.0 / denom)
    temp = temp_hi
    prods = np.empty((nx, ny))
    weights = np.empty((nx, ny))
    grad_a = np.empty((nx, d))
    grad_b = np.empty((ny, d))
    for _ in range(iterations + 1):
        for i in range(nx):
            for j in range(ny):
                s = 0.0
                for k in range(d):
                    s += alphas[i, k] * betas[j, k]
                prods[i, j] = s
        worst = 1.0e300
        for i in range(nx):
            for j in range(ny):
                if m[i, j] != 0.0:
                    v = m[i, j] * prods[i, j]
                    if v < worst:
                        worst = v
        if worst > best:
            best = worst
            best_a[:] = alphas
            best_b[:] = betas
        wsum = 0.0
        for i in range(nx):
            for j in range(ny):
                if m[i, j] != 0.0:
                    w = math.exp(-(m[i, j] * prods[i, j] - worst) / temp)
                    weights[i, j] = w
                    wsum += w
                else:
                    weights[i, j] = 0.0
        grad_a[:] = 0.0
        grad_b[:] = 0.0
        for i in range(nx):
            for j in range(ny):
                if weights[i, j] != 0.0:
                    c = weights[i, j] * m[i, j] / wsum
                    for k in range(d):
                        grad_a[i, k] += c * betas[j, k]
                        grad_b[j, k] += c * alphas[i, k]
        for i in range(nx):
            nrm = 0.0
            for k in range(d):
                alphas[i, k] += step * grad_a[i, k]
                nrm += alphas[i, k] * alphas[i, k]
            nrm = math.sqrt(nrm)
            for k in range(d):
                alphas[i, k] /= nrm
        for j in range(ny):
            nrm = 0.0
            for k in range(d):
                betas[j, k] += step * grad_b[j, k]
                nrm += betas[j, k] * betas[j, k]
            nrm = math.sqrt(nrm)
            for k in range(d):
                betas[j, k] /= nrm
        step *= decay
        temp *= anneal
    return best_a, best_b, best


@pytest.mark.parametrize("seed", range(5))
def test_linf_implementations_agree(seed):
    rng = np.random.default_rng(seed)
    # rows < cols makes linf_to_l1_norm enumerate over the transpose
    for shape in ((6, 10), (10, 6)):
        m = rng.standard_normal(shape)
        expected = brute_force_linf(m)
        assert linf_to_l1_enum(m) == pytest.approx(expected, rel=1e-12)
        assert linf_to_l1_norm(m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_ascent_implementations_agree(seed):
    rng = np.random.default_rng(seed)
    m = rng.choice([-1.0, 1.0], size=(4, 4))
    a0 = rng.standard_normal((4, 5))
    b0 = rng.standard_normal((4, 5))
    a0 /= np.linalg.norm(a0, axis=1, keepdims=True)
    b0 /= np.linalg.norm(b0, axis=1, keepdims=True)
    args = (m, a0, b0, 200, 0.05, 0.999, 1.0, 0.01)
    a1, b1, g1 = _margin_ascent_loop(*args)
    a2, b2, g2 = margin_ascent(*args)
    assert g1 == pytest.approx(g2, abs=1e-9)
    np.testing.assert_allclose(a1, a2, atol=1e-9)
    np.testing.assert_allclose(b1, b2, atol=1e-9)
