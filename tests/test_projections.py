import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim.projections import jl_dimension, project_vectors, verify_distortion


class TestJlDimension:
    def test_example_value(self):
        # 4 ln(101) / (0.2^2/2 - 0.2^3/3)
        expected = math.ceil(4 * math.log(101) / (0.04 / 2 - 0.008 / 3))
        assert jl_dimension(101, 0.2) == expected == 1066

    def test_monotone_in_eps(self):
        assert jl_dimension(100, 0.1) > jl_dimension(100, 0.2)

    def test_monotone_in_count(self):
        assert jl_dimension(1000, 0.2) > jl_dimension(10, 0.2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            jl_dimension(1, 0.2)
        with pytest.raises(ValueError):
            jl_dimension(100, 0.0)
        with pytest.raises(ValueError):
            jl_dimension(100, 1.5)


class TestProjectVectors:
    def test_shape_and_determinism(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((7, 50))
        p1 = project_vectors(v, d=10, seed=42)
        p2 = project_vectors(v, d=10, seed=42)
        assert p1.shape == (7, 10)
        np.testing.assert_array_equal(p1, p2)
        p3 = project_vectors(v, d=10, seed=43)
        assert not np.allclose(p1, p3)

    def test_expected_norm_preserved(self):
        # Gaussian JL maps preserve squared norms in expectation; average
        # over many vectors at a healthy target dimension and check loosely.
        rng = np.random.default_rng(0)
        v = rng.standard_normal((200, 500))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p = project_vectors(v, d=100, seed=1)
        assert np.mean(np.linalg.norm(p, axis=1) ** 2) == pytest.approx(1.0, abs=0.05)


class TestVerifyDistortion:
    def test_identity_has_zero_distortion(self):
        v = np.random.default_rng(0).standard_normal((5, 8))
        rep = verify_distortion(v, v, eps=0.01)
        assert rep.ok
        assert rep.max_distortion == pytest.approx(0.0, abs=1e-12)
        assert rep.max_inner_product_error == pytest.approx(0.0, abs=1e-12)

    def test_scaling_breaks_distances(self):
        v = np.random.default_rng(1).standard_normal((5, 8))
        rep = verify_distortion(v, 2.0 * v, eps=0.2)
        # The appended zero vector exposes the scaling: |2u - 0|^2 = 4|u|^2.
        assert not rep.ok
        assert rep.max_distortion == pytest.approx(3.0, abs=1e-9)

    def test_worst_pair_identified(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = v.copy()
        w[2] *= 1.5
        rep = verify_distortion(v, w, eps=0.1)
        assert not rep.ok
        assert 2 in rep.worst_pair

    def test_good_random_projection_passes(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((20, 500))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        d = jl_dimension(21, 0.5)
        p = project_vectors(v, d=d, seed=11)
        assert verify_distortion(v, p, eps=0.5).ok

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_inner_product_error_bounded_by_norms(self, seed):
        # Polarization: inner product error is at most eps/2 * (|u|^2 + |v|^2)
        # whenever distances distort by at most eps; spot-check the report's
        # internal consistency instead of the full claim.
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((4, 6))
        w = v + 0.01 * rng.standard_normal((4, 6))
        rep = verify_distortion(v, w, eps=1.0)
        assert rep.max_inner_product_error >= 0.0
        assert rep.max_distortion >= 0.0
