import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim import embeddings
from qfpsim._rng import generator, signs
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


def dense_distortion(vectors, projected, eps):
    """The whole-matrix check that the row-blocked one replaced, copied
    verbatim: both point sets stacked with the zero vector, their full Gram
    and distance matrices, and the pairs in triu order."""
    v = np.asarray(vectors, dtype=np.float64)
    pv = np.asarray(projected, dtype=np.float64)

    def distances(a):
        a = np.vstack([a, np.zeros(a.shape[1])])
        sq = (a * a).sum(axis=1)
        gram = a @ a.T
        return gram, np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)

    (gv, dv), (gp, dp) = distances(v), distances(pv)
    iu = np.triu_indices(dv.shape[0], k=1)
    ratios = np.ones(len(iu[0]))
    nondegenerate = dv[iu] > 0.0
    ratios[nondegenerate] = dp[iu][nondegenerate] / dv[iu][nondegenerate]
    distortions = np.abs(ratios - 1.0)
    worst = int(np.argmax(distortions))
    max_distortion = float(distortions[worst])
    return {"ok": max_distortion <= eps + 1e-12,
            "worst_pair": (int(iu[0][worst]), int(iu[1][worst])),
            "max_distortion": max_distortion,
            "max_inner_product_error": float(np.abs(gp - gv).max())}


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


class TestRowBlockedDistortion:
    """verify_distortion forms its pairwise matrices one block of rows at a
    time.  On integer points every Gram entry and distance is exact in any
    order of summation, so the report must equal the dense one exactly."""

    @staticmethod
    def points(seed, count, dim, spread):
        rng = np.random.default_rng(seed)
        v = rng.integers(-spread, spread + 1, (count, dim)).astype(np.float64)
        v[count // 3] = v[count // 2]  # two coincident points
        v[-1] = 0.0  # a point on the appended zero vector
        p = v + rng.integers(-1, 2, (count, dim))
        p[count // 3] = p[count // 2]
        return v, p

    @pytest.mark.parametrize("count, dim, spread", [(300, 5, 3), (130, 3, 1), (64, 2, 2)])
    @pytest.mark.parametrize("chunk", [1 << 16, 512, 1])
    def test_blocks_report_what_the_dense_check_reports(self, monkeypatch, count, dim, spread,
                                                        chunk):
        # at CHUNK = 2^16 the 300 points are cut into 12 blocks of 27 rows;
        # smaller CHUNKs cut every size into blocks down to one row
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        for seed in range(3):
            v, p = self.points(seed, count, dim, spread)
            assert verify_distortion(v, p, 0.3)._asdict() == dense_distortion(v, p, 0.3)

    def test_norms_are_checked_through_the_zero_vector(self, monkeypatch):
        # a translation keeps every distance between points and moves their
        # norms: only pairs with the appended zero vector distort
        monkeypatch.setattr(embeddings, "CHUNK", 512)
        v, _ = self.points(0, 64, 3, 2)
        report = verify_distortion(v, v + 1.0, 0.3)
        assert report._asdict() == dense_distortion(v, v + 1.0, 0.3)
        assert report.worst_pair[1] == 64 and report.max_distortion > 0.3

    def test_ties_go_to_the_first_pair(self, monkeypatch):
        # every pair distorts by 3 (all distances double): the first pair of
        # triu order, (0, 1), is reported, though it is in the first block
        monkeypatch.setattr(embeddings, "CHUNK", 64)
        v = np.eye(40)
        report = verify_distortion(v, 2.0 * v, 0.5)
        assert report._asdict() == dense_distortion(v, 2.0 * v, 0.5)
        assert report.worst_pair == (0, 1) and report.max_distortion == 3.0

    def test_coincident_points_are_skipped(self):
        # points 0 and 1 coincide, so their pair is skipped though the images
        # part; every norm is kept, so nothing distorts
        v = np.array([[1.0, 2.0], [1.0, 2.0]])
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        report = verify_distortion(v, p, 0.1)
        assert report._asdict() == dense_distortion(v, p, 0.1)
        assert report.ok and report.max_distortion == 0.0 and report.worst_pair == (0, 1)

    def test_float_points_agree_with_the_dense_check(self):
        # row blocks change the order of BLAS sums, so float reports may
        # differ from the dense ones in the last bits only
        rng = np.random.default_rng(5)
        v = rng.standard_normal((300, 40))
        p = project_vectors(v, 30, 1)
        got, want = verify_distortion(v, p, 0.5)._asdict(), dense_distortion(v, p, 0.5)
        for key in ("max_distortion", "max_inner_product_error"):
            assert got[key] == pytest.approx(want[key], rel=1e-12)

    def test_refuses_empty_point_sets(self):
        with pytest.raises(ValueError, match="nonempty"):
            verify_distortion(np.zeros((0, 3)), np.zeros((0, 2)), 0.5)


class TestBlockedMap:
    @pytest.mark.parametrize("chunk", [1 << 16, 100, 1])
    def test_map_is_one_draw_of_the_stream(self, monkeypatch, chunk):
        # projecting the identity reads the map back exactly: drawn a block
        # of rows at a time, it is the +-1/sqrt(d) map one d x D draw gives
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        d, big_d = 7, 30
        g = signs(generator(11), d * big_d).reshape(d, big_d) / np.sqrt(d)
        assert np.array_equal(project_vectors(np.eye(big_d), d, 11), g.T)

    @pytest.mark.parametrize("chunk", [1 << 16, 100, 1])
    def test_projection_is_the_same_at_any_block_size(self, monkeypatch, chunk):
        # on integer points every sum of +-1 multiples is exact in any order,
        # so the projections agree to the bit.  A row of 11 entries ends off a
        # word boundary of the stream and a group of 4 rows on one: CHUNK = 100
        # cuts the 10 rows into blocks of 8 and 2, CHUNK = 1 into 4, 4 and 2
        points = np.random.default_rng(2).integers(-9, 10, (6, 11)).astype(np.float64)
        whole = project_vectors(points, 10, 5)
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        assert np.array_equal(project_vectors(points, 10, 5), whole)

    def test_entries_are_balanced_signs(self):
        # the map of seed 0 at 64 x 256: every entry is +-1/8, about half of each
        g = project_vectors(np.eye(256), 64, 0)
        assert set(np.unique(g)) == {-1 / 8, 1 / 8}
        assert abs(np.mean(g > 0) - 0.5) < 0.01
