import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfpsim import compiler, io
from qfpsim.compiler import (
    ClassicalSMPProtocol,
    OneWayProtocol,
    VectorSystem,
    assemble_shared_randomness_states,
    classical_projection_protocol,
    compile_one_way,
    compile_smp,
    reduce_embedding_dimension,
)
from qfpsim.embeddings import SignMatrix, ThresholdEmbedding, verify_threshold_embedding
from qfpsim.linalg import unit_rows
from qfpsim.problems import (
    eq_matrix,
    eq_parity_one_way_protocol,
    eq_parity_protocol,
)
from tests.test_embeddings import eq_orthonormal_embedding


def previous_junk_pad(a: np.ndarray, b: np.ndarray, big_l: float):
    """The two-sided pad that built every state block before padding filled
    its output in place, copied verbatim: the bit-identity reference."""
    dim = a.shape[1]

    def pad(block: np.ndarray, junk_offset: int) -> np.ndarray:
        sq = (block * block).sum(axis=1)
        slack = np.sqrt(np.maximum(big_l**2 - sq, 0.0))
        out = np.zeros((block.shape[0], dim + 2))
        out[:, :dim] = block
        out[:, dim + junk_offset] = slack
        return out / big_l

    return pad(a, 0), pad(b, 1)


def per_slice_states(v: VectorSystem) -> tuple[np.ndarray, np.ndarray]:
    """The block states built one random string at a time: each slice padded
    by ``previous_junk_pad``, scaled by 1/sqrt(|R|) and laid side by side."""
    scale = 1.0 / np.sqrt(v.num_rand)
    slices = [previous_junk_pad(v.a[r], v.b[r], v.norm_bound) for r in range(v.num_rand)]
    return tuple(np.hstack([scale * pair[side] for pair in slices]) for side in (0, 1))


def previous_states(v: VectorSystem) -> tuple[np.ndarray, np.ndarray]:
    """The block states as assembled with ``previous_junk_pad``: all slices
    padded as one (|X| |R|, dim) block per side, then scaled by 1/sqrt(|R|)."""
    rows = [side.transpose(1, 0, 2).reshape(-1, v.dim) for side in (v.a, v.b)]
    scale = 1.0 / np.sqrt(v.num_rand)
    return tuple(scale * padded.reshape(side.shape[1], -1)
                 for padded, side in zip(previous_junk_pad(*rows, v.norm_bound), (v.a, v.b)))


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def brute_force_acceptance(p: ClassicalSMPProtocol) -> np.ndarray:
    """Average the referee's accept bit over every random string directly."""
    nx = p.alice_messages.shape[0]
    ny = p.bob_messages.shape[0]
    out = np.zeros((nx, ny))
    for x in range(nx):
        for y in range(ny):
            hits = [
                p.accept[p.alice_messages[x, i], p.bob_messages[y, i]]
                for i in range(p.num_rand)
            ]
            out[x, y] = np.mean(hits)
    return out


class TestCompile:
    def test_smp_matches_brute_force(self):
        p = eq_parity_protocol(3)
        v = compile_smp(p)
        np.testing.assert_allclose(v.acceptance_matrix(), brute_force_acceptance(p))

    def test_parity_eq_acceptance_values(self):
        p = eq_parity_protocol(2)
        acc = compile_smp(p).acceptance_matrix()
        np.testing.assert_allclose(np.diag(acc), 1.0)
        off = acc[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.5)

    def test_one_way_matches_smp_on_parity_eq(self):
        # The one-way wrapper fixes Bob's decision to equality of parities,
        # so both compilations induce the same acceptance matrix.
        smp = compile_smp(eq_parity_protocol(2))
        ow = compile_one_way(eq_parity_one_way_protocol(2))
        np.testing.assert_allclose(ow.acceptance_matrix(), smp.acceptance_matrix())

    def test_norm_bound_is_sqrt_dim(self):
        v = compile_smp(eq_parity_protocol(2))
        assert v.norm_bound == pytest.approx(math.sqrt(2))  # c=1, dim 2^c

    @pytest.mark.parametrize("protocol", [
        pytest.param(eq_parity_protocol(4), id="smp"),
        pytest.param(eq_parity_one_way_protocol(4), id="one-way"),
        pytest.param(eq_parity_protocol(5, 9, 3), id="sampled-smp"),
        pytest.param(eq_parity_one_way_protocol(5, 6, 4), id="sampled-one-way"),
    ])
    def test_matmul_acceptance_equals_einsum_on_tables(self, protocol):
        v = compile_one_way(protocol)
        einsum = np.einsum("rxd,ryd->xy", v.a, v.b) / v.num_rand
        assert np.array_equal(bits(v.acceptance_matrix()), bits(einsum))

    def test_matmul_acceptance_close_to_einsum_on_floats(self):
        rng = np.random.default_rng(7)
        v = VectorSystem(rng.standard_normal((5, 6, 3)), rng.standard_normal((5, 4, 3)), 10.0)
        np.testing.assert_allclose(v.acceptance_matrix(),
                                   np.einsum("rxd,ryd->xy", v.a, v.b) / v.num_rand,
                                   rtol=1e-13, atol=1e-14)

    def test_rejects_out_of_range_messages(self):
        with pytest.raises(ValueError):
            ClassicalSMPProtocol(
                n=1,
                c=1,
                rand_strings=(0,),
                alice_messages=[[2], [0]],
                bob_messages=[[0], [0]],
                accept=np.eye(2, dtype=int),
            )

    @pytest.mark.parametrize("field, value", [
        ("alice_messages", [[0.7], [0]]),
        ("rand_strings", (0.5,)),
        ("rand_strings", ("0",)),
    ])
    @pytest.mark.parametrize("model", ["smp", "one-way"])
    def test_rejects_non_integral_entries(self, model, field, value):
        fields = dict(n=1, c=1, rand_strings=(0,), alice_messages=[[1], [0]])
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} has an entry that is not an integer"):
            if model == "smp":
                ClassicalSMPProtocol(**fields, bob_messages=[[0], [1]], accept=np.eye(2))
            else:
                OneWayProtocol(**fields, bob_accept=np.ones((2, 2, 1)))

    @pytest.mark.parametrize("bad", [2, 0.5, np.nan, -1])
    @pytest.mark.parametrize("model", ["smp", "one-way"])
    def test_rejects_accept_entries_other_than_0_and_1(self, model, bad):
        with pytest.raises(ValueError, match="0/1 table"):
            if model == "smp":
                ClassicalSMPProtocol(1, 1, (0,), [[1], [0]], [[0], [1]], [[1, 0], [0, bad]])
            else:
                OneWayProtocol(1, 1, (0,), [[1], [0]], [[[1], [0]], [[0], [bad]]])

    def test_integral_floats_are_accepted(self):
        p = ClassicalSMPProtocol(1, 1, (1.0,), [[1.0], [0.0]], [[0], [1]], np.eye(2))
        assert p.rand_strings == (1,) and p.alice_messages.dtype == np.int64
        assert p.alice_messages.tolist() == [[1], [0]]

    def test_integer_tables_keep_their_dtype(self):
        # an int16 table is held in its dtype, as a read-only copy that leaves
        # the caller's table writable; a bool one is read as 0/1 messages (as a
        # bool index it would mask instead)
        table = np.array([[1], [0]], dtype=np.int16)
        p = ClassicalSMPProtocol(1, 1, (0,), table, np.array([[False], [True]]), np.eye(2))
        assert p.alice_messages.dtype == np.int16 and not np.shares_memory(p.alice_messages, table)
        assert table.flags.writeable
        assert p.bob_messages.dtype == np.int8 and p.bob_messages.tolist() == [[0], [1]]
        assert compile_one_way(p).acceptance_matrix().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_a_write_to_the_callers_table_leaves_the_protocol_unchanged(self):
        # a message of 5 written after construction would be outside [0, 2)
        table = np.array([[1], [0]], dtype=np.int16)
        p = ClassicalSMPProtocol(1, 1, (0,), table, table, np.eye(2))
        table[0, 0] = 5
        assert p.alice_messages.tolist() == [[1], [0]] and p.bob_messages.tolist() == [[1], [0]]
        assert compile_one_way(p).acceptance_matrix().tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_every_table_is_read_only(self):
        smp = ClassicalSMPProtocol(1, 1, (0,), [[1], [0]], [[0], [1]], np.eye(2))
        one_way = OneWayProtocol(1, 1, (0,), [[1], [0]], np.ones((2, 2, 1)))
        for arr in (smp.alice_messages, smp.bob_messages, smp.accept, one_way.bob_accept):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


@st.composite
def smp_protocols(draw):
    """A random SMP protocol with c in {1, 2} on up to 8 x 8 inputs."""
    c = draw(st.sampled_from((1, 2)))
    nx, ny, nr = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ClassicalSMPProtocol(
        n=3,
        c=c,
        rand_strings=tuple(rng.choice(64, nr, replace=False)),
        alice_messages=rng.integers(0, 1 << c, (nx, nr)),
        bob_messages=rng.integers(0, 1 << c, (ny, nr)),
        accept=rng.integers(0, 2, (1 << c, 1 << c)),
    )


@st.composite
def float_systems(draw):
    """A float-valued vector system, dim 1-9, |R| 1-4, 1-6 inputs per side,
    with row norms <= L, a zero row and a row at norm L on each side."""
    dim, nr = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    big_l = draw(st.floats(0.25, 4.0))

    def side() -> np.ndarray:
        count = draw(st.integers(1, 6))
        raw = draw(arrays(np.float64, (nr, count, dim),
                          elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        rows = raw * (big_l / np.sqrt(dim))
        rows[0, 0] = 0.0
        # scaled by its peak first, since unit_rows wants squares in the normal range
        peak = np.abs(raw[-1, -1]).max()
        top = unit_rows(raw[-1, -1:] / peak)[0] if peak else np.eye(dim)[0]
        rows[-1, -1] = big_l * top
        return rows

    return VectorSystem(side(), side(), big_l)


@st.composite
def integer_systems(draw):
    """An int8 vector system with entries in [-127, 127], dim 1-9, |R| 1-4
    and 1-6 inputs per side, its norm bound at least its longest row."""
    dim, nr = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    a, b = (draw(arrays(np.int8, (nr, draw(st.integers(1, 6)), dim),
                        elements=st.integers(-127, 127))) for _ in range(2))
    longest = max(float(np.linalg.norm(side.astype(np.float64), axis=-1).max()) for side in (a, b))
    return VectorSystem(a, b, max(longest, 1.0) * draw(st.floats(1.0, 2.0)))


class TestOneProtocolPath:
    @settings(max_examples=60, deadline=None)
    @given(smp_protocols())
    def test_smp_compiles_as_its_one_way_form(self, p):
        smp = compile_smp(p)
        one_way = compile_one_way(
            OneWayProtocol(p.n, p.c, p.rand_strings, p.alice_messages, p.bob_accept))
        assert smp.norm_bound == one_way.norm_bound
        assert np.array_equal(bits(smp.a), bits(one_way.a))
        assert np.array_equal(bits(smp.b), bits(one_way.b))
        assert np.array_equal(smp.acceptance_matrix(), brute_force_acceptance(p))

    def test_eq_one_way_protocol_is_the_smp_one_way_form(self):
        smp, one_way = eq_parity_protocol(4, 7, 2), eq_parity_one_way_protocol(4, 7, 2)
        assert one_way.rand_strings == smp.rand_strings
        assert np.array_equal(one_way.bob_accept, smp.bob_accept)


class TestVectorSystem:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0 + 2e-9])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_vectors_beyond_the_bound_refused(self, side, bad):
        vectors = {"a": np.zeros((2, 3, 2)), "b": np.zeros((2, 4, 2))}
        vectors[side][1, 2, 0] = bad
        with pytest.raises(ValueError, match=f"^{side} vector norm {re.escape(str(bad))} exceeds"):
            VectorSystem(vectors["a"], vectors["b"], 1.0)

    def test_norm_within_tolerance_accepted(self):
        a = np.full((1, 1, 1), 1.0 + 0.5e-9)
        assert VectorSystem(a, -a, 1.0).acceptance_matrix()[0, 0] < 0.0

    @settings(max_examples=100, deadline=None)
    @given(integer_systems())
    def test_integer_systems_read_as_their_float_cast(self, v8):
        # in int8, 12^2 already wraps: every reader must accumulate in float64
        v64 = VectorSystem(v8.a.astype(np.int64), v8.b.astype(np.int64), v8.norm_bound)
        vf = VectorSystem(v8.a.astype(np.float64), v8.b.astype(np.float64), v8.norm_bound)
        assert (v8.a.dtype, v64.a.dtype, vf.a.dtype) == (np.int8, np.int64, np.float64)
        accept = vf.acceptance_matrix()
        sq = (accept / vf.norm_bound**2) ** 2
        entries = np.where(sq < (sq.min() + sq.max()) / 2, 1, -1)
        assume(sq.max() <= 1.0 and np.any(entries == -1) and np.any(entries == 1))
        m = SignMatrix(entries)
        want = assemble_shared_randomness_states(vf, m)
        for v in (v8, v64):
            assert np.array_equal(bits(v.acceptance_matrix()), bits(accept))
            e = assemble_shared_randomness_states(v, m)
            assert np.array_equal(bits(e.alphas), bits(want.alphas))
            assert np.array_equal(bits(e.betas), bits(want.betas))
            assert (e.delta0, e.delta1) == (want.delta0, want.delta1)
            assert io.vector_system_payload(v) == io.vector_system_payload(vf)


class TestPadToStates:
    def test_unit_norm_and_exact_inner_products(self):
        # the per-slice reference pads each slice into unit states
        v = compile_smp(eq_parity_protocol(2))
        for r in range(v.num_rand):
            a, b = previous_junk_pad(v.a[r], v.b[r], v.norm_bound)
            np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(
                a @ b.T, (v.a[r] @ v.b[r].T) / v.norm_bound**2, atol=1e-12
            )


class TestAssemble:
    def test_parity_eq_thresholds(self):
        v = compile_smp(eq_parity_protocol(4))
        e = assemble_shared_randomness_states(v, eq_matrix(4))
        assert e.delta0 == pytest.approx(1 / 16, abs=1e-12)
        assert e.delta1 == pytest.approx(1 / 4, abs=1e-12)

    def test_embedding_verifies(self):
        m = eq_matrix(2)
        e = assemble_shared_randomness_states(compile_smp(eq_parity_protocol(2)), m)
        assert verify_threshold_embedding(e, m).valid

    def test_inner_products_equal_scaled_acceptance(self):
        v = compile_smp(eq_parity_protocol(2))
        e = assemble_shared_randomness_states(v, eq_matrix(2))
        np.testing.assert_allclose(
            e.alphas @ e.betas.T, v.acceptance_matrix() / v.norm_bound**2, atol=1e-12
        )

    @pytest.mark.parametrize("system", [
        pytest.param(lambda: compile_smp(eq_parity_protocol(4)), id="smp"),
        pytest.param(lambda: compile_one_way(eq_parity_one_way_protocol(4)), id="one-way"),
        pytest.param(lambda: compile_smp(eq_parity_protocol(4, 11, 5)), id="sampled-smp"),
        pytest.param(lambda: compile_one_way(eq_parity_one_way_protocol(4, 7, 2)),
                     id="sampled-one-way"),
    ])
    def test_one_pass_states_equal_per_slice_states(self, system):
        v = system()
        e = assemble_shared_randomness_states(v, eq_matrix(4))
        alphas, betas = per_slice_states(v)
        assert np.array_equal(bits(e.alphas), bits(alphas))
        assert np.array_equal(bits(e.betas), bits(betas))

    @settings(max_examples=150, deadline=None)
    @given(float_systems())
    def test_states_equal_per_slice_states_on_float_data(self, v):
        sq = (v.acceptance_matrix() / v.norm_bound**2) ** 2
        cut = (sq.min() + sq.max()) / 2
        # rounding at norm L can put (P/L^2)^2 just above 1, past any delta1
        entries = np.where(sq < cut, 1, np.where((sq > cut) & (sq <= 1.0), -1, 0))
        assume(np.any(entries))
        e = assemble_shared_randomness_states(v, SignMatrix(entries))
        for reference in (per_slice_states(v), previous_states(v)):
            assert np.array_equal(bits(e.alphas), bits(reference[0]))
            assert np.array_equal(bits(e.betas), bits(reference[1]))

    @pytest.mark.parametrize("system", [
        pytest.param(lambda: compile_smp(eq_parity_protocol(8)), id="smp"),
        pytest.param(lambda: compile_one_way(eq_parity_one_way_protocol(8)), id="one-way"),
    ])
    def test_peak_memory_is_about_the_states(self, system):
        # Each state block is allocated once; the only other array live at
        # the peak is one slack column, 1/(dim+2) of a block.
        v = system()
        tracemalloc.start()
        try:
            e = assemble_shared_randomness_states(v, eq_matrix(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (e.alphas.nbytes + e.betas.nbytes)

    def test_compiled_system_holds_one_byte_per_entry(self):
        # EQ-9: the two state blocks take 16 MiB; the int8 system 1 MiB (8 MiB
        # as float64), so the traced peak of compile plus assembly is the
        # states plus the system, not the states plus a float64 system
        p, m = eq_parity_protocol(9), eq_matrix(9)
        tracemalloc.start()
        try:
            v = compile_one_way(p)
            e = assemble_shared_randomness_states(v, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.a.dtype == v.b.dtype == np.int8
        assert peak <= 1.25 * (e.alphas.nbytes + e.betas.nbytes + v.a.size + v.b.size)

    def test_non_separating_system_rejected(self):
        # A protocol that always accepts cannot sign-separate anything.
        p = ClassicalSMPProtocol(
            n=1,
            c=1,
            rand_strings=(0,),
            alice_messages=[[0], [1]],
            bob_messages=[[0], [1]],
            accept=np.ones((2, 2), dtype=int),
        )
        with pytest.raises(ValueError, match="separate"):
            assemble_shared_randomness_states(compile_smp(p), eq_matrix(1))

    def test_shape_mismatch_rejected(self):
        v = compile_smp(eq_parity_protocol(2))
        with pytest.raises(ValueError):
            assemble_shared_randomness_states(v, eq_matrix(1))


class TestReduceEmbeddingDimension:
    def test_default_target_is_noop_at_desk_scale(self):
        m = eq_matrix(2)
        e = assemble_shared_randomness_states(compile_smp(eq_parity_protocol(2)), m)
        assert reduce_embedding_dimension(e, m, seed=0) is e

    @staticmethod
    def wide_eq3_embedding() -> ThresholdEmbedding:
        base = eq_orthonormal_embedding(8)
        padded = np.zeros((8, 2000))
        padded[:, :8] = base.alphas
        return ThresholdEmbedding(padded, padded.copy(), base.delta0, base.delta1)

    def test_explicit_target_reduces_and_verifies(self):
        m = eq_matrix(3)
        wide = self.wide_eq3_embedding()
        reduced = reduce_embedding_dimension(wide, m, seed=0, target_dim=300)
        assert reduced.dimension == 302  # target plus two junk coordinates
        assert verify_threshold_embedding(reduced, m).valid
        gap = wide.delta1 - wide.delta0
        assert reduced.delta1 - reduced.delta0 == pytest.approx(gap / 2, abs=1e-12)

    def test_rebuilt_states_equal_the_previous_pad(self, monkeypatch):
        calls = []

        def recording_pad(rows, junk, big_l):
            calls.append((rows.copy(), big_l))
            return pad(rows, junk, big_l)

        pad = compiler._junk_pad
        monkeypatch.setattr(compiler, "_junk_pad", recording_pad)
        reduced = reduce_embedding_dimension(self.wide_eq3_embedding(), eq_matrix(3), seed=0,
                                             target_dim=300)
        # the returned embedding is the last candidate rebuilt
        (a, big_l), (b, _) = calls[-2:]
        alphas, betas = previous_junk_pad(a, b, big_l)
        assert np.array_equal(bits(reduced.alphas), bits(alphas))
        assert np.array_equal(bits(reduced.betas), bits(betas))

    def test_invalid_embedding_refused(self):
        e = eq_orthonormal_embedding(4)
        with pytest.raises(ValueError, match="refusing"):
            reduce_embedding_dimension(e, SignMatrix(-eq_matrix(2).dense()), seed=0)


class TestClassicalProjectionProtocol:
    def test_estimates_inner_product(self):
        e = eq_orthonormal_embedding(4)
        est_diag = classical_projection_protocol(
            e, (2, 2), k=4, reps=4000, precision_bits=16, seed=0
        )
        est_off = classical_projection_protocol(
            e, (0, 3), k=4, reps=4000, precision_bits=16, seed=0
        )
        true_diag = float(e.alphas[2] @ e.betas[2])
        true_off = float(e.alphas[0] @ e.betas[3])
        assert est_diag == pytest.approx(true_diag, abs=0.05)
        assert est_off == pytest.approx(true_off, abs=0.05)

    def test_deterministic_in_seed(self):
        e = eq_orthonormal_embedding(2)
        args = dict(pair=(0, 0), k=4, reps=50, precision_bits=8)
        assert classical_projection_protocol(
            e, seed=5, **args
        ) == classical_projection_protocol(e, seed=5, **args)

    def test_coarse_quantization_still_close(self):
        e = eq_orthonormal_embedding(2)
        est = classical_projection_protocol(
            e, (1, 1), k=4, reps=8000, precision_bits=4, seed=1
        )
        assert est == pytest.approx(float(e.alphas[1] @ e.betas[1]), abs=0.15)

    def test_rejects_bad_parameters(self):
        e = eq_orthonormal_embedding(1)
        with pytest.raises(ValueError):
            classical_projection_protocol(e, (0, 0), k=0, reps=10, precision_bits=8, seed=0)
        with pytest.raises(ValueError):
            classical_projection_protocol(e, (0, 0), k=4, reps=10, precision_bits=1, seed=0)
