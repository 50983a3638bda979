import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfpsim import embeddings, io
from qfpsim.compiler import assemble_shared_randomness_states, compile_smp
from qfpsim.embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
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
        # a contiguous float64 side, and a _CodedRows palette and codes, are
        # held themselves: the caller's array turns read-only
        a, palette, codes = np.eye(3), np.array([0.0, 1.0]), np.eye(3, dtype=np.uint8)
        e, r = ThresholdEmbedding(a, a, 0.1, 0.2), Realization(a, a, 0.5)
        rows = embeddings._CodedRows(palette, codes)
        assert e.alphas is a and r.betas is a and rows.palette is palette and rows.codes is codes
        assert not (a.flags.writeable or palette.flags.writeable or codes.flags.writeable)
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


def coded(rows: np.ndarray) -> embeddings._CodedRows:
    """``rows`` held as a palette of their distinct values and uint8 codes."""
    palette, codes = np.unique(rows, return_inverse=True)
    return embeddings._CodedRows(palette, codes.reshape(rows.shape).astype(np.uint8))


class TestCodedSides:
    """A ThresholdEmbedding holds palette-coded sides as their codes, and
    every reader sees the decoded arrays."""

    STATES = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0.5, 0.5, 0.5, 0.5],
                       [0.5, -0.5, 0.5, -0.5], [0.6, 0.8, 0, 0], [0, 0, -0.8, 0.6]])

    def pair(self, rows: int, cols: int):
        rng = np.random.default_rng(rows)
        alphas, betas = (self.STATES[rng.integers(0, 6, k)] for k in (rows, cols))
        whole = ThresholdEmbedding(alphas, betas, 0.2, 0.7)
        return ThresholdEmbedding(coded(alphas), coded(betas), 0.2, 0.7), whole

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_readers_see_the_decoded_arrays(self, monkeypatch, chunk):
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        e, whole = self.pair(30, 40)
        # symmetric states (alpha_x = beta_x): both sides are one coded object
        shared = (ThresholdEmbedding(v.alphas, v.alphas, 0.2, 0.7) for v in (e, whole))
        for e, whole in ((e, whole), shared):
            m = SignMatrix(np.random.default_rng(1).integers(-1, 2, (30, whole.betas.shape[0])))
            assert isinstance(e.alphas, embeddings._CodedRows) and e.dimension == 4
            assert verify_threshold_embedding(e, m) == verify_threshold_embedding(whole, m)
            assert np.array_equal(np.asarray(e.betas), whole.betas)
            assert np.array_equal(e.alphas[7], whole.alphas[7])
            assert np.array_equal(e.alphas[3:9], whole.alphas[3:9])
            lifted, want = embed_to_realization(e), embed_to_realization(whole)
            assert np.array_equal(lifted.alphas, want.alphas) and lifted.gamma == want.gamma

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_the_first_non_unit_row_is_named_alphas_first(self, monkeypatch, chunk):
        # each block of rows is checked as the embedding is built
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        _, whole = self.pair(30, 40)
        alphas, betas = whole.alphas.copy(), whole.betas.copy()
        alphas[23] *= 2
        betas[4] *= 2
        with pytest.raises(ValueError, match=r"^alphas\[23\] is not a unit vector \(norm 2.0\)"):
            ThresholdEmbedding(coded(alphas), coded(betas), 0.2, 0.7)
        with pytest.raises(ValueError, match=r"^betas\[4\] is not a unit vector \(norm 2.0\)"):
            ThresholdEmbedding(whole.alphas, coded(betas), 0.2, 0.7)

    def test_nbytes_is_the_palette_and_codes(self):
        # 30 x 4 entries: 8 bytes per distinct value and 120 of codes, where
        # the decoded rows take 960
        e, whole = self.pair(30, 40)
        assert e.alphas.nbytes == 8 * np.unique(whole.alphas).size + 30 * 4
        assert whole.alphas.nbytes == 30 * 4 * 8
        # each read decodes into a new array, which the embedding does not hold
        assert not np.shares_memory(e.alphas[3:9], e.alphas[3:9])

    def test_palette_and_codes_are_read_only(self):
        compiled = assemble_shared_randomness_states(compile_smp(eq_parity_protocol(3)),
                                                     eq_matrix(3))
        parsed = io.parse_embedding(io.document("embedding", io.embedding_payload(compiled)))
        for e in (compiled, parsed):
            for rows in (e.alphas, e.betas):
                assert isinstance(rows, embeddings._CodedRows)
                for arr in (rows.codes, rows.palette):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = arr[-1]


@st.composite
def coded_unit_rows(draw):
    """Palette-coded unit rows whose codes the verifier counts: a palette of
    1-6 values with zeros among them; each column holds one code (zero or
    not), and an entry is that code or a zero one.  Some rows copy an earlier
    one, so ties occur.  Each distinct row is completed to unit norm by its own
    value in a column of its own, so no column holds two nonzero codes."""
    values = draw(st.lists(st.floats(-1, 1), min_size=1, max_size=6))
    values += [0.0] * draw(st.integers(0 if 0.0 in values else 1, 2))
    palette = np.array(draw(st.permutations(values)))
    zeros = np.flatnonzero(palette == 0)
    rows, dim = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.where(rng.random((rows, dim)) < 0.6, rng.integers(0, palette.size, dim),
                     rng.choice(zeros, (rows, dim)))
    for x in range(1, rows):
        if draw(st.booleans()):
            codes[x] = codes[draw(st.integers(0, x - 1))]
    norms = np.einsum("xd,xd->x", palette[codes], palette[codes])
    if norms.max() > 0:
        palette = palette / np.sqrt(1.25 * norms.max())  # every row's norm below 1
        norms = np.einsum("xd,xd->x", palette[codes], palette[codes])
    _, first, group = np.unique(codes, axis=0, return_index=True, return_inverse=True)
    junk = np.where(group.reshape(-1, 1) == np.arange(first.size),
                    palette.size + np.arange(first.size), zeros[0])
    palette = np.concatenate([palette, np.sqrt(1.0 - norms[first])])
    entries = rng.integers(-1, 2, (rows, rows))
    entries.flat[draw(st.integers(0, rows * rows - 1))] = draw(st.sampled_from((-1, 1)))
    delta0 = draw(st.floats(0.0, 0.9))
    return (palette, np.hstack([codes, junk]).astype(np.uint8), SignMatrix(entries),
            delta0, draw(st.floats(delta0 + 0.01, 1.0)))


def first_worst(sq: np.ndarray, mask: np.ndarray, largest: bool):
    """The first pair in row-major order holding the largest (smallest) masked value."""
    values = np.where(mask, sq, -np.inf if largest else np.inf)
    at = (np.argmax if largest else np.argmin)(values)
    return float(values.flat[at]), divmod(int(at), sq.shape[1])


class TestCodeCounts:
    """Two coded sides are multiplied from counts of their codes on shared
    columns, unless that would take more (pair, column) entries than D."""

    @settings(max_examples=300, deadline=None)
    @given(coded_unit_rows())
    def test_counts_agree_with_decoding(self, case):
        palette, codes, m, delta0, delta1 = case
        rows = embeddings._CodedRows(palette, codes)
        # the same rows under other codes: pairs of unequal codes on the two sides
        recoded = embeddings._CodedRows(palette[::-1], palette.size - 1 - codes)
        try:
            whole = ThresholdEmbedding(np.asarray(rows), np.asarray(rows), delta0, delta1)
        except ValueError:  # a completed norm that rounds off 1
            assume(False)
        want = verify_threshold_embedding(whole, m)
        tol = dot_allowance(whole.dimension, squared=True)
        for betas in (rows, recoded):
            assert embeddings._count_terms(rows, betas) is not None
            sq = np.empty(m.entries.shape)
            got = verify_threshold_embedding(ThresholdEmbedding(rows, betas, delta0, delta1), m,
                                             out=sq)
            assert abs(got.worst_zero_side - want.worst_zero_side) <= tol
            assert abs(got.worst_one_side - want.worst_one_side) <= tol
            if (min(abs(want.worst_zero_side - delta0), abs(want.worst_one_side - delta1))
                    > 2 * tol):
                assert got.valid == want.valid
            for pair, value, mask, largest in (
                    (got.worst_zero_pair, got.worst_zero_side, m.entries == 1, True),
                    (got.worst_one_pair, got.worst_one_side, m.entries == -1, False)):
                if pair is not None:
                    assert sq[pair] == value and first_worst(sq, mask, largest) == (value, pair)
            # rows with equal codes have equal products, to the bit
            for x, y in zip(*np.nonzero((codes[:, None] == codes[None]).all(-1))):
                assert np.array_equal(sq[x], sq[y]) and np.array_equal(sq[:, x], sq[:, y])

    def test_too_many_shared_entries_decode(self):
        # +-1/2 in every column on both sides: 4 pairs a column, 4 D > D
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        rows = np.vstack([hadamard, -hadamard])
        e = ThresholdEmbedding(coded(rows), coded(rows), 0.0, 1.0)
        assert embeddings._count_terms(e.alphas, e.betas) is None
        m = SignMatrix(np.random.default_rng(0).integers(-1, 2, (8, 8)))
        got, want = np.empty((8, 8)), np.empty((8, 8))
        assert (verify_threshold_embedding(e, m, out=got)
                == verify_threshold_embedding(ThresholdEmbedding(rows, rows, 0.0, 1.0), m, out=want))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_compiled_eq_pairs_tie_exactly(self, n):
        # every off-diagonal pair, and every diagonal one, counts the same codes:
        # the first of each is reported, where a float64 product broke EQ-8's tie
        m = eq_matrix(n)
        e = assemble_shared_randomness_states(compile_smp(eq_parity_protocol(n)), m)
        sq = np.empty(m.entries.shape)
        report = verify_threshold_embedding(e, m, out=sq)
        assert (report.worst_zero_pair, report.worst_one_pair) == ((0, 1), (0, 0))
        assert np.unique(sq[m.entries == 1]).size == np.unique(sq[m.entries == -1]).size == 1


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
