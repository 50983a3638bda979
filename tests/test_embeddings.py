import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfpsim import embeddings, io
from qfpsim.compiler import assemble_shared_randomness_states, compile_smp
from qfpsim.embeddings import (
    CompiledEmbedding,
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    VectorSystem,
    embed_to_realization,
    realization_to_embedding,
    verify_realization,
    verify_threshold_embedding,
)
from qfpsim.fingerprint import swap_test_prob
from qfpsim.linalg import dot_allowance
from qfpsim.problems import eq_matrix, eq_parity_protocol


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
        assert (m.entries == 1).sum() == 2
        assert (m.entries == -1).sum() == 1
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

    def test_records_take_arrays_of_their_dtype_and_copy_others(self):
        # a contiguous float64 side, and a vector system's contiguous integer
        # sides, are held themselves: the caller's array turns read-only
        a, ints = np.eye(3), np.eye(3, dtype=np.int8)[None]
        e, r = ThresholdEmbedding(a, a, 0.1, 0.2), Realization(a, a, 0.5)
        v = VectorSystem(ints, ints, 1.0)
        assert e.alphas is a and r.betas is a and v.a is ints and v.b is ints
        assert not (a.flags.writeable or ints.flags.writeable)
        # another dtype or layout is copied, as are sign matrices (astype) and
        # protocol tables (compiler._integers, astype): the caller's array
        # stays writable and apart from the record
        ints, strided = np.eye(3, dtype=np.int64), np.eye(3)[:, ::-1]
        e = ThresholdEmbedding(ints, strided, 0.1, 0.2)
        entries = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        m = SignMatrix(entries)
        p = eq_parity_protocol(1)
        tables = {name: np.array(getattr(p, name))
                  for name in ("alice_messages", "bob_messages", "accept")}
        q = type(p)(p.n, p.c, p.rand_strings, **tables)
        for held, given in [(e.alphas, ints), (e.betas, strided), (m.entries, entries),
                            *((getattr(q, name), arr) for name, arr in tables.items())]:
            assert not held.flags.writeable and given.flags.writeable
            assert not np.shares_memory(held, given)


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


def previous_worst_sides(sq: np.ndarray, m: SignMatrix):
    """The whole-matrix worst-pair search that the row-blocked one replaced,
    copied with its sign masks written out: the reference for values, pairs
    and ties."""
    return (embeddings._worst_pair(sq, m.entries == 1, largest=True) or (0.0, None),
            embeddings._worst_pair(sq, m.entries == -1) or (1.0, None))


@st.composite
def squared_levels_with_signs(draw):
    """A {-1, 0, +1} matrix and squared values drawn from at most three levels,
    so that ties are common, with a block size of a few entries."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    entries = np.array(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=rows * cols,
                                     max_size=rows * cols))).reshape(rows, cols)
    if not entries.any():
        entries[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = -1
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    sq = np.array(draw(st.lists(st.sampled_from(levels), min_size=rows * cols,
                                max_size=rows * cols))).reshape(rows, cols)
    return SignMatrix(entries), sq, draw(st.integers(1, 3 * cols))


class TestWorstPairSearch:
    @settings(max_examples=300, deadline=None)
    @given(squared_levels_with_signs())
    def test_row_blocks_match_the_whole_matrix_search(self, case):
        m, sq, chunk = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "CHUNK", chunk)
            assert embeddings._worst_sides(sq.__getitem__, m) == previous_worst_sides(sq, m)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 6, 1 << 16])
    def test_ties_across_blocks_go_to_the_first_pair(self, chunk, monkeypatch):
        # rows 1 and 3 tie on both sides; at chunk <= 2 they sit in different blocks
        sq = np.array([[0.1, 0.2], [0.5, 0.0], [0.3, 0.4], [0.5, 0.0]])
        m = SignMatrix([[-1, -1], [1, -1], [1, 1], [1, -1]])
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        assert embeddings._worst_sides(sq.__getitem__, m) == ((0.5, (1, 0)), (0.0, (1, 1)))

    @pytest.mark.parametrize("sign, expected", [
        (-1, ((0.0, None), (0.25, (0, 0)))),
        (1, ((0.25, (0, 0)), (1.0, None))),
    ])
    def test_a_side_without_pairs(self, sign, expected, monkeypatch):
        monkeypatch.setattr(embeddings, "CHUNK", 2)
        sq, m = np.full((3, 2), 0.25), SignMatrix(np.full((3, 2), sign))
        assert embeddings._worst_sides(sq.__getitem__, m) == expected

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


def states_of(e: CompiledEmbedding) -> ThresholdEmbedding:
    """The float64 states a compiled embedding stands for, at its thresholds."""
    return ThresholdEmbedding(e.alphas, e.betas, e.delta0, e.delta1)


class TestCodedSides:
    """A CompiledEmbedding holds its sides coded as the int8 system whose
    padded slices they are, and every reader sees the padded arrays."""

    def pair(self, rows: int, cols: int):
        """A seeded 0/1 system on |R| = 3 slices of 4 coordinates (one-hot
        alphas, indicator betas, L = 2) as a compiled embedding, and its
        padded states as a ThresholdEmbedding."""
        rng = np.random.default_rng(rows)
        a = np.eye(4, dtype=np.int8)[rng.integers(0, 4, (3, rows))]
        b = rng.integers(0, 2, (3, cols, 4), dtype=np.int8)
        e = CompiledEmbedding(VectorSystem(a, b, 2.0), 0.2, 0.7)
        return e, states_of(e)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_readers_see_the_decoded_arrays(self, monkeypatch, chunk):
        reference = self.pair(30, 40)[1]  # padded at the default CHUNK
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        e, whole = self.pair(30, 40)
        # padding one block of rows at a time changes no bit at any CHUNK
        for side in ("alphas", "betas"):
            assert np.array_equal(getattr(e, side).view(np.uint64),
                                  getattr(reference, side).view(np.uint64))
        # symmetric states (alpha_x = beta_x): both sides are one system array
        v = e.system
        shared = CompiledEmbedding(VectorSystem(v.a, v.a, v.norm_bound), 0.2, 0.7)
        for e, whole in ((e, whole), (shared, states_of(shared))):
            m = SignMatrix(np.random.default_rng(1).integers(-1, 2, (30, whole.betas.shape[0])))
            assert e.dimension == whole.dimension == 3 * (4 + 2)
            got, want = (verify_threshold_embedding(x, m) for x in (e, whole))
            tol = dot_allowance(e.dimension, squared=True)
            assert got.valid == want.valid
            assert abs(got.worst_zero_side - want.worst_zero_side) <= tol
            assert abs(got.worst_one_side - want.worst_one_side) <= tol
            assert np.array_equal(e.betas, whole.betas)
            assert np.array_equal(e.alphas[7], whole.alphas[7])
            assert np.array_equal(e.alphas[3:9], whole.alphas[3:9])
            lifted, want_lift = embed_to_realization(e), embed_to_realization(whole)
            assert np.array_equal(lifted.alphas, want_lift.alphas)
            assert lifted.gamma == want_lift.gamma

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_the_first_non_unit_row_is_named_alphas_first(self, monkeypatch, chunk):
        # each block of slices is bounded as the system is built, a before b,
        # each named by its (input, random string)
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        e, _ = self.pair(30, 40)
        a, b = e.system.a.copy(), e.system.b.copy()
        a[1, 23] = (3, 0, 0, 0)
        b[0, 4] = (2, 2, 0, 0)
        with pytest.raises(ValueError, match=r"^a\[23, 1\] norm 3.0 exceeds the bound 2.0$"):
            VectorSystem(a, b, 2.0)
        with pytest.raises(ValueError, match=r"^b\[4, 0\] norm 2.8284271247461903 exceeds"):
            VectorSystem(e.system.a, b, 2.0)

    def test_nbytes_is_the_palette_and_codes(self):
        # 30 inputs x 3 slices x 4 entries: one byte each, where the padded
        # rows take 8 bytes for each of 30 x 18 entries
        e, whole = self.pair(30, 40)
        assert e._asdict().keys() == {"system", "delta0", "delta1"}
        assert e.system.a.nbytes == 30 * 3 * 4 and whole.alphas.nbytes == 30 * 18 * 8
        # each read pads into a new array, which the embedding does not hold
        assert not np.shares_memory(e.alphas, e.alphas)

    def test_palette_and_codes_are_read_only(self):
        compiled = assemble_shared_randomness_states(compile_smp(eq_parity_protocol(3)),
                                                     eq_matrix(3))
        parsed = io.parse_embedding(io.document("embedding", io.embedding_payload(compiled)))
        for e in (compiled, parsed):
            assert isinstance(e, CompiledEmbedding)
            for arr in (e.system.a, e.system.b):
                assert arr.dtype == np.int8
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[-1]


@st.composite
def separated_integer_systems(draw):
    """An int8 system (entries in [-3, 3], |R| <= 4, |X| and |Y| <= 5, dim
    <= 6, L^2 an integer at least its largest squared slice norm) and a sign
    matrix it separates: f = 0 where (P/L^2)^2 is below the midpoint of its
    range, f = 1 above it, and a promise zero at the midpoint."""
    nr, dim = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    a, b = (draw(arrays(np.int8, (nr, draw(st.integers(1, 5)), dim), elements=st.integers(-3, 3)))
            for _ in range(2))
    # copied inputs give equal products, so ties occur
    for side in (a, b):
        for x in range(1, side.shape[1]):
            if draw(st.booleans()):
                side[:, x] = side[:, draw(st.integers(0, x - 1))]
    top = max(1, *(int(np.einsum("rxd,rxd->rx", s, s, dtype=np.int64).max()) for s in (a, b)))
    v = VectorSystem(a, b, math.sqrt(draw(st.integers(top, 2 * top))))
    sq = (v.acceptance_matrix() / v.norm_bound**2) ** 2
    cut = (sq.min() + sq.max()) / 2
    assume(sq.min() < sq.max())
    return v, SignMatrix(np.where(sq < cut, 1, np.where(sq > cut, -1, 0)))


def squares_of(e, m: SignMatrix) -> np.ndarray:
    """The verifier's squared inner products, its squared ``_products`` blocks
    stacked in the row blocks it reads them in."""
    squares = embeddings._products(e, m, squared=True)
    return np.vstack([squares(s) for s in embeddings._row_blocks(m.rows, m.cols)])


def first_worst(sq: np.ndarray, mask: np.ndarray, largest: bool):
    """The first pair in row-major order holding the largest (smallest) masked value."""
    values = np.where(mask, sq, -np.inf if largest else np.inf)
    at = (np.argmax if largest else np.argmin)(values)
    return float(values.flat[at]), divmod(int(at), sq.shape[1])


class TestCodeCounts:
    """A compiled embedding is verified from its system's exact acceptance
    counts, which its padded float64 states give up to rounding."""

    @settings(max_examples=300, deadline=None)
    @given(separated_integer_systems())
    def test_counts_agree_with_decoding(self, case):
        v, m = case
        e = assemble_shared_randomness_states(v, m)
        got, sq = verify_threshold_embedding(e, m), squares_of(e, m)
        want = verify_threshold_embedding(states_of(e), m)
        tol = dot_allowance(e.dimension, squared=True)
        # the thresholds are the system's own extremes, which its states reach
        # within rounding: both forms are valid
        assert got.valid and want.valid
        assert (got.worst_zero_side, got.worst_one_side) == (e.delta0, e.delta1) or e.delta1 == 1.0
        assert abs(got.worst_zero_side - want.worst_zero_side) <= tol
        assert abs(got.worst_one_side - want.worst_one_side) <= tol
        for pair, value, mask, largest in (
                (got.worst_zero_pair, got.worst_zero_side, m.entries == 1, True),
                (got.worst_one_pair, got.worst_one_side, m.entries == -1, False)):
            if pair is not None:
                assert sq[pair] == value and first_worst(sq, mask, largest) == (value, pair)
        # inputs with equal slices have equal products, to the bit
        for side, products in ((v.a, sq), (v.b, sq.T)):
            same = (side[:, :, None] == side[:, None]).all(axis=(0, 3))
            for x, y in zip(*np.nonzero(same)):
                assert np.array_equal(products[x], products[y])
        # the system form survives a JSON round trip, report and all, to the bit
        doc = json.loads(json.dumps(io.document("embedding", io.embedding_payload(e))))
        parsed = io.parse_embedding(doc)
        assert verify_threshold_embedding(parsed, m) == got

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_compiled_eq_pairs_tie_exactly(self, n):
        # every off-diagonal pair, and every diagonal one, has the same exact
        # count: the first of each is reported, where a float64 product of the
        # states broke EQ-8's tie
        m = eq_matrix(n)
        e = assemble_shared_randomness_states(compile_smp(eq_parity_protocol(n)), m)
        report, sq = verify_threshold_embedding(e, m), squares_of(e, m)
        assert (report.worst_zero_pair, report.worst_one_pair) == ((0, 1), (0, 0))
        assert np.unique(sq[m.entries == 1]).size == np.unique(sq[m.entries == -1]).size == 1


def random_unit_pairs():
    """2048 random unit alphas and betas in 16 dimensions, and a random
    2048 x 2048 sign matrix whose promise pairs are a third of the pairs."""
    rng = np.random.default_rng(0)
    alphas, betas = (rng.standard_normal((2048, 16)) for _ in range(2))
    m = SignMatrix(rng.choice(np.array([-1, 0, 1], dtype=np.int8), (2048, 2048)))
    return (alphas / np.linalg.norm(alphas, axis=1, keepdims=True),
            betas / np.linalg.norm(betas, axis=1, keepdims=True), m)


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_holds_one_block_of_rows(self):
        # 2048 x 2048 pairs of 16-dimensional states, walked as the system of
        # one random string that views them: the squares are formed one block
        # of 32 rows at a time (0.5 MiB), in place, never as the whole 32 MiB
        # matrix, and give the whole matrix's first worst pairs
        alphas, betas, m = random_unit_pairs()
        e = ThresholdEmbedding(alphas, betas, 0.25, 0.5)
        report, peak = traced_peak(lambda: verify_threshold_embedding(e, m))
        assert peak <= 2 * 2**20
        sq = (e.alphas @ e.betas.T) ** 2
        zero, one = first_worst(sq, m.entries == 1, True), first_worst(sq, m.entries == -1, False)
        assert (report.worst_zero_pair, report.worst_one_pair) == (zero[1], one[1])
        assert report.worst_zero_side == pytest.approx(zero[0], rel=1e-12)
        assert report.worst_one_side == pytest.approx(one[0], rel=1e-12)


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

    def test_holds_one_block_of_rows(self):
        # 2048 x 2048 pairs of 16-dimensional states: the signed products are
        # formed one block of 32 rows at a time (0.5 MiB), never as the whole
        # 32 MiB matrix, and give the whole matrix's first worst pair
        alphas, betas, m = random_unit_pairs()
        r = Realization(alphas, betas, 0.5)
        report, peak = traced_peak(lambda: verify_realization(r, m))
        assert peak <= 2 * 2**20
        signed = np.where(m.entries != 0, m.entries * (r.alphas @ r.betas.T), np.inf)
        at = divmod(int(np.argmin(signed)), 2048)
        assert report.worst_pair == at and not report.valid
        assert report.achieved_margin == pytest.approx(signed[at], rel=1e-12)


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
