import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim.embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    embed_to_realization,
    realization_to_embedding,
    reduce_realization_dimension,
    verify_realization,
    verify_threshold_embedding,
)
from qfpsim.fingerprint import swap_test_prob
from qfpsim.problems import eq_matrix


def eq_orthonormal_embedding(n_inputs):
    e = np.eye(n_inputs)
    return ThresholdEmbedding(e, e, 0.0, 1.0)


def eq_explicit_realization(n_inputs):
    """alpha_x = (1, sqrt(2) e_x)/sqrt(3), beta_y = (1, -sqrt(2) e_y)/sqrt(3)."""
    alphas = np.hstack([np.ones((n_inputs, 1)), math.sqrt(2) * np.eye(n_inputs)])
    betas = np.hstack([np.ones((n_inputs, 1)), -math.sqrt(2) * np.eye(n_inputs)])
    return Realization(alphas / math.sqrt(3), betas / math.sqrt(3), 1.0 / 3.0)


def random_tight_embedding(rng, nx, ny, d):
    """Random unit vectors with thresholds set to the extremal achieved values."""
    alphas = rng.standard_normal((nx, d))
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    betas = rng.standard_normal((ny, d))
    betas /= np.linalg.norm(betas, axis=1, keepdims=True)
    sq = (alphas @ betas.T) ** 2
    order = np.argsort(sq, axis=None)
    split = rng.integers(1, sq.size)
    entries = np.empty(sq.size, dtype=np.int8)
    entries[order[:split]] = 1
    entries[order[split:]] = -1
    m = SignMatrix(entries.reshape(sq.shape))
    delta0 = float(sq.flat[order[split - 1]])
    delta1 = float(sq.flat[order[split]])
    if delta1 - delta0 < 1e-9 or delta1 > 1.0:
        return None
    return ThresholdEmbedding(alphas, betas, delta0, delta1), m


class TestSignMatrix:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            SignMatrix(np.zeros((2, 2)))

    def test_rejects_other_values(self):
        for bad in (2, 0.5, np.nan, -2):
            with pytest.raises(ValueError, match="entries must be -1, 0 or"):
                SignMatrix([[bad, 1], [1, 1]])

    def test_check_allocates_no_wide_copy(self):
        # np.isin would copy a 4096^2 int8 matrix to int64: 8x its bytes
        entries = np.ones((4096, 4096), dtype=np.int8)
        tracemalloc.start()
        try:
            SignMatrix(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * entries.nbytes

    def test_masks(self):
        m = SignMatrix([[1, 0], [-1, 1]])
        assert m.zero_pairs().sum() == 2
        assert m.one_pairs().sum() == 1
        assert (m.entries == 0).sum() == 1


class TestUnitPairs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_refused(self, bad):
        good = np.eye(2)
        broken = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"alphas\\[0\\] is not a unit vector \\(norm {bad}\\)"):
            ThresholdEmbedding(broken, good, 0.1, 0.2)
        with pytest.raises(ValueError, match="betas\\[0\\] is not a unit vector"):
            Realization(good, broken, 0.5)
        with pytest.raises(ValueError, match="unit"):
            swap_test_prob(broken[0], good[0])

    def test_positional_fields_and_dimension(self):
        a = np.eye(3)
        e = ThresholdEmbedding(a, a, 0.1, 0.2)
        r = Realization(a, a, 0.5)
        assert (e.delta0, e.delta1, r.gamma) == (0.1, 0.2, 0.5)
        assert e.dimension == r.dimension == 3
        assert not e.alphas.flags.writeable and not r.betas.flags.writeable


def brute_force_worst_pairs(alphas, betas, entries):
    """Row-major loops: max squared inner product over +1 entries, min over
    -1 entries, and min signed inner product over nonzero entries, each with
    the first pair that attains it.  The inner products come from the same
    matrix product as in the verifiers, so only the search is compared."""
    gram = alphas @ betas.T
    zero = one = signed = None
    for x in range(entries.shape[0]):
        for y in range(entries.shape[1]):
            ip = float(gram[x, y])
            sq = ip * ip  # as numpy squares an array; libm's pow may differ by an ulp
            if entries[x, y] == 1 and (zero is None or sq > zero[0]):
                zero = (sq, (x, y))
            if entries[x, y] == -1 and (one is None or sq < one[0]):
                one = (sq, (x, y))
            if entries[x, y] != 0 and (signed is None or entries[x, y] * ip < signed[0]):
                signed = (float(entries[x, y] * ip), (x, y))
    return zero, one, signed


@st.composite
def sign_matrices_with_unit_vectors(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = np.array(
        draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    if not entries.any():
        entries[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    alphas = rng.standard_normal((rows, dim))
    betas = rng.standard_normal((cols, dim))
    # Copied rows give equal inner products, so ties occur.
    for vectors in (alphas, betas):
        for i in range(1, vectors.shape[0]):
            if draw(st.booleans()):
                vectors[i] = vectors[draw(st.integers(0, i - 1))]
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    betas /= np.linalg.norm(betas, axis=1, keepdims=True)
    return SignMatrix(entries), alphas, betas


class TestWorstPairSearch:
    @settings(max_examples=200, deadline=None)
    @given(sign_matrices_with_unit_vectors())
    def test_verifiers_match_row_major_brute_force(self, case):
        m, alphas, betas = case
        zero, one, signed = brute_force_worst_pairs(alphas, betas, m.entries)
        e = verify_threshold_embedding(ThresholdEmbedding(alphas, betas, 0.0, 1.0), m)
        assert (e.worst_zero_side, e.worst_zero_pair) == (zero or (0.0, None))
        assert (e.worst_one_side, e.worst_one_pair) == (one or (1.0, None))
        r = verify_realization(Realization(alphas, betas, 1.0), m)
        assert (r.achieved_margin, r.worst_pair) == signed


class TestVerifyThresholdEmbedding:
    def test_eq_orthonormal_valid(self):
        m = eq_matrix(2)
        report = verify_threshold_embedding(eq_orthonormal_embedding(4), m)
        assert report.valid
        assert report.worst_zero_side == pytest.approx(0.0)
        assert report.worst_one_side == pytest.approx(1.0)

    def test_sign_flip_is_invisible(self):
        e = np.eye(4)
        flipped = e.copy()
        flipped[2] *= -1
        report = verify_threshold_embedding(
            ThresholdEmbedding(e, flipped, 0.0, 1.0), eq_matrix(2)
        )
        assert report.valid  # the square kills the sign

    def test_collapsed_vectors_invalid(self):
        e1 = np.zeros((2, 2))
        e1[:, 0] = 1.0
        report = verify_threshold_embedding(
            ThresholdEmbedding(e1, e1, 0.0, 1.0), eq_matrix(1)
        )
        assert not report.valid
        assert report.worst_zero_side == pytest.approx(1.0)
        assert report.worst_zero_pair in {(0, 1), (1, 0)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            verify_threshold_embedding(eq_orthonormal_embedding(3), eq_matrix(2))


class TestVerifyRealization:
    def test_explicit_eq_margin(self):
        report = verify_realization(eq_explicit_realization(4), eq_matrix(2))
        assert report.valid
        assert report.achieved_margin == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_single_entry(self):
        r = Realization(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        report = verify_realization(r, SignMatrix([[1]]))
        assert report.valid and report.achieved_margin == pytest.approx(1.0)

    def test_promise_pairs_are_skipped(self):
        m = SignMatrix([[1, 0], [0, 1]])
        alphas = np.eye(2)
        # the (0,1)/(1,0) pairs would violate any margin, but they are 0 in M
        r = Realization(alphas, alphas, 1.0)
        report = verify_realization(r, m)
        assert report.valid and report.achieved_margin == pytest.approx(1.0)


class TestConversions:
    def test_full_gap_constants(self):
        r = embed_to_realization(eq_orthonormal_embedding(4))
        assert r.gamma == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert r.dimension == 4 * 4 + 1

    def test_small_gap_margin(self):
        e = np.eye(4)
        emb = ThresholdEmbedding(e, e, 0.5 - 1e-3, 0.5)
        r = embed_to_realization(emb)
        assert r.gamma == pytest.approx(1e-3 / (2 + 0.5 + 0.5 - 1e-3), rel=1e-12)

    def test_eq_realization_verifies(self):
        m = eq_matrix(2)
        r = embed_to_realization(eq_orthonormal_embedding(4))
        report = verify_realization(r, m)
        assert report.valid
        # inner products are exactly 1/3 - (2/3) on the diagonal
        assert report.achieved_margin == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_tensor_cap(self):
        e = np.eye(65)
        with pytest.raises(ValueError, match="cap"):
            embed_to_realization(ThresholdEmbedding(e, e, 0.0, 1.0))

    def test_backward_constants(self):
        e = realization_to_embedding(eq_explicit_realization(4))
        assert e.delta0 == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert e.delta1 == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert e.dimension == 4 + 1 + 1  # original 5 plus the new head coordinate

    def test_backward_extreme_margin(self):
        alphas = np.array([[1.0]])
        r = Realization(alphas, alphas, 1.0)
        e = realization_to_embedding(r)
        assert (e.delta0, e.delta1) == (0.0, 1.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_properties(self, seed):
        rng = np.random.default_rng(seed)
        made = random_tight_embedding(
            rng, rng.integers(2, 9), rng.integers(2, 9), rng.integers(2, 9)
        )
        if made is None:
            return
        emb, m = made
        assert verify_threshold_embedding(emb, m).valid

        r = embed_to_realization(emb)
        report = verify_realization(r, m)
        assert report.valid
        assert report.achieved_margin == pytest.approx(r.gamma, abs=1e-12)
        assert np.allclose(np.linalg.norm(r.alphas, axis=1), 1.0, atol=1e-9)

        back = realization_to_embedding(r)
        assert verify_threshold_embedding(back, m).valid
        assert back.delta1 - back.delta0 == pytest.approx(r.gamma, abs=1e-12)


class TestReduceRealizationDimension:
    def test_noop_when_target_not_smaller(self):
        m = eq_matrix(2)
        r = embed_to_realization(eq_orthonormal_embedding(4))
        assert reduce_realization_dimension(r, m, seed=0) is r

    def test_invalid_input_rejected(self):
        m = eq_matrix(2)
        r = eq_explicit_realization(4)
        bad = Realization(r.alphas, r.betas, 0.9)
        with pytest.raises(ValueError, match="claimed margin"):
            reduce_realization_dimension(bad, m, seed=0)

    def test_reduces_high_dimensional_realization(self):
        m = eq_matrix(2)
        base = eq_explicit_realization(4)
        big = 3000
        alphas = np.zeros((4, big))
        alphas[:, :5] = base.alphas
        betas = np.zeros((4, big))
        betas[:, :5] = base.betas
        r = Realization(alphas, betas, base.gamma)
        reduced = reduce_realization_dimension(r, m, seed=0)
        assert reduced.dimension < big
        assert reduced.gamma == pytest.approx(base.gamma / 2)
        assert verify_realization(reduced, m).valid
