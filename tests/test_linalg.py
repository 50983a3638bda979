import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim.linalg import CHUNK, linf_to_l1_norm, operator_norm, unit_rows


def brute_force_linf_l1(m):
    """Independent oracle: enumerate every sign vector directly."""
    m = np.asarray(m, float)
    return max(
        np.abs(m @ np.array(v)).sum()
        for v in itertools.product((-1.0, 1.0), repeat=m.shape[1])
    )


class TestUnitRows:
    def test_three_four(self):
        assert unit_rows([[3, 4]]) == pytest.approx(np.array([[0.6, 0.8]]))

    def test_identity_case(self):
        assert unit_rows([[1, 0]]) == pytest.approx(np.array([[1.0, 0.0]]))

    def test_zero_vector(self):
        # a zero row stays zero, beside a row that is scaled
        out = unit_rows([[0.0, 0.0], [0.0, 2.0]])
        assert out.tolist() == [[0.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("entries", [[1.1249568914120838e-157], [1e-170, 0.0], [1e200, 1e200]])
    def test_unit_norm_outside_normal_range(self, entries):
        # squares that fall into subnormals or overflow must not skew the norm
        assert np.linalg.norm(unit_rows([entries])) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_unit_norm(self, entries):
        v = np.array(entries)
        if np.linalg.norm(v) == 0:
            return
        assert np.linalg.norm(unit_rows([v])) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
    def test_normal_range_matches_plain_division(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-100, 100)
        expected = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(unit_rows(v), expected)

    @pytest.mark.parametrize("cols", [1, 7, 512, CHUNK + 3])
    def test_chunked_norms_match_one_call(self, cols):
        # several chunks of rows, the last one partial; every third row is
        # scaled so far that its norm leaves the normal range
        rng = np.random.default_rng(cols)
        v = rng.standard_normal((3 * max(1, CHUNK // cols) + 2, cols))
        assert np.array_equal(unit_rows(v), v / np.linalg.norm(v, axis=1, keepdims=True))
        v[::3] *= 1e200
        v[1::3] *= 1e-200
        peaked = v / np.abs(v).max(axis=1, keepdims=True)
        peaked[2::3] = v[2::3]
        assert np.array_equal(unit_rows(v),
                              peaked / np.linalg.norm(peaked, axis=1, keepdims=True))
        # in place, into the rows themselves, the result is the same
        w = v.copy()
        assert unit_rows(w, out=w) is w
        assert np.array_equal(w, unit_rows(v))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal(self):
        assert operator_norm([[3, 0], [0, 4]]) == pytest.approx(4.0, abs=1e-8)

    def test_all_ones_start_in_non_dominant_eigenspace(self):
        # The all-ones vector is an exact eigenvector of M^T M here with
        # eigenvalue 1, while the top singular value is 2; a power iteration
        # started from it would report 1.
        m = [[-1, -1, 1], [-1, 1, -1], [1, -1, -1]]
        assert operator_norm(m) == pytest.approx(2.0, abs=1e-8)

    def test_hadamard_4x4(self):
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
        expected = np.linalg.svd(h, compute_uv=False)[0]  # brute-force oracle
        assert expected == pytest.approx(2.0)
        assert operator_norm(h) == pytest.approx(expected, abs=1e-8)

    def test_all_ones_start_in_kernel(self):
        # the all-ones vector lies in the kernel of M
        assert operator_norm([[1, -1], [-1, 1]]) == pytest.approx(2.0, abs=1e-8)

    def test_near_degenerate_top_pair(self):
        # sigma_2 / sigma_1 = 1 - 1e-7: an iterative method stops short here
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((40, 30)))
        v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        s = np.linspace(0.5, 1.0, 30)
        s[-2] = 1 - 1e-7
        m = u @ np.diag(s) @ v.T
        expected = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_svd_and_transpose(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rng.integers(1, 13), rng.integers(1, 13)))
        expected = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(expected, abs=1e-9 * max(1, expected))
        assert operator_norm(m) == pytest.approx(operator_norm(m.T), abs=1e-9)


class TestLinfToL1:
    def test_2x2_mixed(self):
        m = [[1, 1], [1, -1]]
        assert linf_to_l1_norm(m) == brute_force_linf_l1(m) == 2.0

    def test_identity(self):
        assert linf_to_l1_norm([[1, 0], [0, 1]]) == 2.0

    def test_1x1(self):
        assert linf_to_l1_norm([[-1]]) == 1.0

    def test_refuses_wide(self):
        # the cap is on the smaller side, so both sides must exceed it
        with pytest.raises(ValueError, match="refused"):
            linf_to_l1_norm(np.ones((26, 26)))

    def test_cap_on_the_smaller_side(self):
        m = np.ones((2, 26))
        assert linf_to_l1_norm(m) == linf_to_l1_norm(m.T) == 52.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 8)))
        assert linf_to_l1_norm(m) == pytest.approx(brute_force_linf_l1(m), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_cauchy_schwarz_chain(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 13), rng.integers(1, 13)
        m = rng.choice([-1.0, 1.0], size=(rows, cols))
        bound = np.sqrt(rows * cols) * operator_norm(m)
        assert linf_to_l1_norm(m) <= bound + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
    def test_dominates_any_feasible_point(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, cols))
        v = rng.uniform(-1, 1, size=cols)
        v[rng.integers(cols)] = rng.choice([-1.0, 1.0])  # make the inf-norm exactly 1
        assert np.abs(m @ v).sum() <= linf_to_l1_norm(m) + 1e-9
