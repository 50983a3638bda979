import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfpsim._kernels import linf_to_l1_enum, margin_ascent
from qfpsim.bounds import _factored_start
from qfpsim.linalg import linf_to_l1_norm, unit_rows


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 14), st.integers(1, 14), st.booleans())
@example(seed=0, rows=12, cols=14, gaussian=False)  # a partial last block
@example(seed=1, rows=3, cols=11, gaussian=True)  # exactly at the split
@example(seed=2, rows=14, cols=1, gaussian=False)
def test_enumeration_matches_the_full_cube(seed, rows, cols, gaussian):
    """No high signs (cols <= 11), exactly at the split and past it, in both
    orientations: exact on {-1, 0, 1}, rel 1e-12 on Gaussian entries."""
    rng = np.random.default_rng(seed)
    if gaussian:
        m = rng.standard_normal((rows, cols))
    else:
        m = rng.choice([-1.0, 0.0, 1.0], size=(rows, cols))
    for a in (m, m.T):
        expected = brute_force_linf(a)
        if gaussian:
            assert linf_to_l1_enum(a) == pytest.approx(expected, rel=1e-12)
        else:
            assert linf_to_l1_enum(a) == expected


def test_enumeration_reaches_the_last_high_code():
    # rank one, M = u w^T: ||Mv||_1 = ||u||_1 |w.v| peaks only at v = +-sign(w).
    # With the last sign +1 that is every high sign -1, the last high code,
    # which a 12-row matrix meets in a partial last block (blocks of 5, 3).
    w = np.array([1.0] * 10 + [-1.0] * 3 + [1.0])
    assert linf_to_l1_enum(np.outer(np.ones(12), w)) == 12.0 * 14.0


# The previous numpy form of ``margin_ascent``, kept verbatim as an oracle:
# the current one must take the same iterates bit for bit.
def _margin_ascent_where(m, alphas0, betas0, iterations, step, decay, temp_hi, temp_lo):
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


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 13),
    st.integers(0, 40),
    st.booleans(),
)
def test_ascent_bit_identical_to_the_where_form(seed, rows, cols, d, iterations, factored):
    rng = np.random.default_rng(seed)
    m = rng.choice([-1.0, 0.0, 1.0], size=(rows, cols))
    m[rng.random(rows) < 0.2] = 0.0  # whole zero rows and columns
    m[:, rng.random(cols) < 0.2] = 0.0
    m[rng.integers(rows), rng.integers(cols)] = rng.choice([-1.0, 1.0])
    if factored:
        a0, b0 = _factored_start(m)
    else:
        a0 = unit_rows(rng.standard_normal((rows, d)))
        b0 = unit_rows(rng.standard_normal((cols, d)))
    temp_hi = rng.uniform(0.05, 2.0)
    schedule = (iterations, rng.uniform(0.01, 0.5), rng.uniform(0.9, 1.0),
                temp_hi, temp_hi * rng.uniform(0.001, 1.0))
    a1, b1, g1 = _margin_ascent_where(m, a0, b0, *schedule)
    a2, b2, g2 = margin_ascent(m, a0, b0, *schedule)
    assert _bits(g1) == _bits(g2)
    assert _bits(a1) == _bits(a2) and _bits(b1) == _bits(b2)


def test_ascent_keeps_the_sign_of_a_zero_margin():
    # With no steps the start is the best arrangement, and its margin
    # -1 * <e_1, e_2> is -0.0: the form with np.where returns it as -0.0, and
    # so must the offset form.
    m = np.array([[-1.0]])
    args = (m, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0, 0.1, 1.0, 1.0, 0.5)
    assert _bits(_margin_ascent_where(*args)[2]) == _bits(margin_ascent(*args)[2]) == _bits(-0.0)
