import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfpsim import compiler, embeddings, io
from qfpsim.compiler import (
    ClassicalSMPProtocol,
    OneWayProtocol,
    VectorSystem,
    assemble_shared_randomness_states,
    classical_projection_protocol,
    compile_one_way,
    compile_smp,
)
from qfpsim.embeddings import (
    CompiledEmbedding,
    SignMatrix,
    ThresholdEmbedding,
    verify_threshold_embedding,
)
from qfpsim.linalg import CHUNK, unit_rows
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


MiB = 1 << 20


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # the first bad vector is named by its (input, random string) index
        with pytest.raises(ValueError,
                           match=rf"^{side}\[2, 1\] norm {re.escape(str(bad))} exceeds the bound 1.0$"):
            VectorSystem(vectors["a"], vectors["b"], 1.0)

    def test_holds_the_callers_arrays_read_only(self):
        # a system held its caller's a as it was: a later write changed its
        # acceptance matrix to 5.0, from a row of norm 5 against L = 1
        a = np.ones((1, 2, 1))
        v = VectorSystem(a, np.ones((1, 2, 1)), 1.0)
        assert v.a is a
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 5.0
        assert v.acceptance_matrix()[0, 0] == 1.0

    @pytest.mark.parametrize("protocol", [
        pytest.param(lambda: eq_parity_protocol(3), id="smp"),
        pytest.param(lambda: eq_parity_one_way_protocol(3), id="one-way"),
    ])
    def test_compiled_sides_are_built_contiguous(self, protocol):
        # compile_one_way builds both sides in (|R|, count, 2^c) order, so the
        # system holds them as they are built; a one-way protocol holds its
        # table in that order, so its b is that table, uncopied
        p = protocol()
        v = compile_one_way(p)
        for side in (v.a, v.b):
            assert side.flags.c_contiguous and not side.flags.writeable
        assert np.shares_memory(v.b, p.bob_accept) == isinstance(p, OneWayProtocol)
        assert np.array_equal(v.b, p.bob_accept.transpose(2, 1, 0))

    def test_norm_within_tolerance_accepted(self):
        # at dimension 1 the allowance is unit_allowance(1) = 2.5u: one ulp above
        # 1 (2u) passes, two (4u) do not
        a = np.full((1, 1, 1), np.nextafter(1.0, 2.0))
        assert VectorSystem(a, -a, 1.0).acceptance_matrix()[0, 0] < 0.0
        with pytest.raises(ValueError, match=r"^a\[0, 0\] norm 1.0000000000000004 exceeds"):
            VectorSystem(a + np.finfo(float).eps, -a, 1.0)

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
            # both integer dtypes write the same int8 blocks, read back as int8
            payload = io.vector_system_payload(v)
            assert payload == io.vector_system_payload(v8)
            assert [payload[side]["dtype"] for side in "ab"] == ["|i1", "|i1"]
            doc = io.document("embedding", {"delta0": 0.0, "delta1": 1.0, "system": payload})
            parsed = io.parse_embedding(json.loads(json.dumps(doc))).system
            assert parsed.a.dtype == parsed.b.dtype == np.int8
            assert np.array_equal(bits(parsed.acceptance_matrix()), bits(accept))


def int8_column(num_rand: int, value: int, first: int | None = None) -> np.ndarray:
    """An int8 (|R|, 1, 1) system side of ``value``, its first entry ``first``."""
    side = np.full((num_rand, 1, 1), value, dtype=np.int8)
    if first is not None:
        side[0] = first
    return side


class TestFloat32Products:
    # float32 holds every integer up to 2^24 = 16 777 216 exactly, and no odd one above
    @pytest.mark.parametrize("a, b, bound", [
        pytest.param(int8_column(1040, 127), int8_column(1040, 127), 127.0,
                     id="at-the-bound"),  # 1040 * 127^2 = 16 774 160
        pytest.param(int8_column(1041, 127), int8_column(1041, 127), 127.0,
                     id="past-the-bound"),  # 16 790 289: float32 would round it
        # np.abs(int8 -128) is -128, which would pass the bound
        pytest.param(int8_column(1100, -128, first=1), int8_column(1100, 127), 128.0,
                     id="minus-128"),
    ])
    def test_acceptance_is_the_float64_einsum(self, a, b, bound):
        want = np.einsum("rxd,ryd->xy", a, b, dtype=np.float64) / a.shape[0]
        assert np.array_equal(bits(VectorSystem(a, b, bound).acceptance_matrix()), bits(want))

    @settings(max_examples=60, deadline=None)
    @given(integer_systems(), float_systems(), st.integers(1, 40))
    def test_row_blocks_change_no_bit(self, v8, vf, chunk):
        # at CHUNK = 1 each block of the products, the norm check and the pad
        # holds one input
        accept = v8.acceptance_matrix()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "CHUNK", chunk)
            v = VectorSystem(v8.a, v8.b, v8.norm_bound)
            assert np.array_equal(bits(v.acceptance_matrix()), bits(accept))
            # the reference squares int8 entries in int8, so it reads v8's float cast
            cast = VectorSystem(v8.a.astype(np.float64), v8.b.astype(np.float64), v8.norm_bound)
            for v, reference in ((v8, cast), (vf, vf)):
                for side, want in enumerate(per_slice_states(reference)):
                    assert np.array_equal(bits(v._states(side)), bits(want))


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
            np.asarray(e.alphas) @ np.asarray(e.betas).T, v.acceptance_matrix() / v.norm_bound**2,
            atol=1e-12
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
        # Assembly forms no state: it holds the system itself, and its peak,
        # ~1.2 MiB, is the threshold search beside the int8 copy of b by input
        # (0.125 MiB here): one block of CHUNK squares (0.5 MiB), the
        # worst-pair search's masked copy of it (0.5 MiB), and float32 tiles of
        # at most CHUNK entries.
        v = system()
        e, peak = traced_peak(lambda: assemble_shared_randomness_states(v, eq_matrix(8)))
        assert e.system is v
        assert peak <= v.b.size + 2.5 * CHUNK * 8

    def test_compiled_system_holds_one_byte_per_entry(self):
        # EQ-9: the int8 system takes 1 MiB (8 MiB as float64) and its states
        # would take 16 MiB as float64.  The traced peak of compile plus
        # assembly, ~3.1 MiB, is the system, the int8 copy of b by input (0.5
        # MiB) and one block of the threshold search: 128 alphas' float64
        # squares (0.5 MiB), the worst-pair search's masked copy (0.5 MiB), and
        # float32 tiles of 64 alphas' and 64 betas' slices (0.25 MiB each).
        # The whole acceptance matrix (2 MiB) is never formed.
        p, m = eq_parity_protocol(9), eq_matrix(9)

        def compile_and_assemble():
            v = compile_one_way(p)
            return v, assemble_shared_randomness_states(v, m)

        (v, e), peak = traced_peak(compile_and_assemble)
        assert v.a.dtype == v.b.dtype == np.int8 and e.system is v
        assert peak <= v.a.size + v.b.size + 2.5 * MiB

    def test_each_state_is_unit_checked_once(self, monkeypatch):
        checked = []

        def recording_check(name, rows, *bound):
            checked.append(name)
            return check(name, rows, *bound)

        check = embeddings._require_unit_rows
        monkeypatch.setattr(embeddings, "_require_unit_rows", recording_check)
        e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(3)),
                                              eq_matrix(3))
        # each side of the system is bounded once; its states are unit by construction
        assert checked == ["a", "b"]
        assert e.alphas.shape == e.betas.shape == (8, 8 * 4) and checked == ["a", "b"]

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


def random_one_way(c: int, seed: int) -> OneWayProtocol:
    """A seeded one-way protocol with 2^c messages: Bob accepts a random set of
    them, of any size, so the betas' slack takes several values."""
    rng = np.random.default_rng(seed)
    nx, ny, nr = 12, 10, 5
    return OneWayProtocol(n=4, c=c, rand_strings=tuple(range(nr)),
                          alice_messages=rng.integers(0, 1 << c, (nx, nr)),
                          bob_accept=rng.integers(0, 2, (1 << c, ny, nr)))


def separated_by(v: VectorSystem) -> SignMatrix:
    """A sign matrix ``v`` separates: f = 0 where (P/L^2)^2 is below the
    midpoint of its range, f = 1 where it is above."""
    sq = (v.acceptance_matrix() / v.norm_bound**2) ** 2
    cut = (sq.min() + sq.max()) / 2
    return SignMatrix(np.where(sq < cut, 1, np.where(sq > cut, -1, 0)))


def signed_system(seed: int) -> VectorSystem:
    """A seeded int8 system of one coordinate per slice, entries in [-7, 5]
    and both ends taken: the largest square is lo's, not hi's."""
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(-7, 6, (4, count, 1), dtype=np.int8) for count in (6, 5))
    a[0, :2, 0] = b[0, :2, 0] = -7, 5
    return VectorSystem(a, b, 7.0)


def indicator_system(dim: int, seed: int) -> VectorSystem:
    """A seeded 0/1 system of ``dim`` coordinates per slice: one-hot alphas
    and betas of random indicators, under the bound sqrt(dim)."""
    rng = np.random.default_rng(seed)
    a = np.eye(dim, dtype=np.int8)[rng.integers(0, dim, (3, 6))]
    b = rng.integers(0, 2, (3, 5, dim), dtype=np.int8)
    return VectorSystem(a, b, float(np.sqrt(dim)))


def float_cast(v: VectorSystem) -> VectorSystem:
    return VectorSystem(v.a.astype(np.float64), v.b.astype(np.float64), v.norm_bound)


def payload_text(e: ThresholdEmbedding) -> str:
    return json.dumps(io.embedding_payload(e))


def states_of(e) -> ThresholdEmbedding:
    return ThresholdEmbedding(e.alphas, e.betas, e.delta0, e.delta1)


def round_trip(e):
    """``e`` written as an embedding document and read back."""
    return io.parse_embedding(json.loads(json.dumps(io.document("embedding",
                                                                io.embedding_payload(e)))))


class TestCodedStates:
    """An integer system's states are held coded as the system itself, which
    its document writes as int8 blocks; read, they are the float path's
    states to the bit."""

    @pytest.mark.parametrize("system", [
        # compile's byte-identical set: EQ-3 to EQ-9 under both models, and
        # --num-r 64 at n = 9 and 12
        *(pytest.param(lambda n=n: (compile_one_way(eq_parity_protocol(n)), eq_matrix(n)),
                       id=f"eq{n}-smp") for n in range(3, 10)),
        *(pytest.param(lambda n=n: (compile_one_way(eq_parity_one_way_protocol(n)), eq_matrix(n)),
                       id=f"eq{n}-one-way") for n in range(3, 10)),
        *(pytest.param(lambda n=n: (compile_one_way(eq_parity_protocol(n, 64)), eq_matrix(n)),
                       id=f"eq{n}-num-r-64") for n in (9, 12)),
        pytest.param(lambda: (compile_one_way(eq_parity_protocol(6, 23, 4)), eq_matrix(6)),
                     id="eq6-num-r"),
        # 9 random strings leave some x != y with every parity equal: not EQ
        pytest.param(lambda: (v := compile_one_way(eq_parity_one_way_protocol(7, 9, 1)),
                              separated_by(v)), id="eq7-one-way-num-r"),
        *(pytest.param(lambda c=c, seed=seed: (v := compile_one_way(random_one_way(c, seed)),
                                               separated_by(v)),
                       id=f"random-c{c}-seed{seed}") for c in (2, 3) for seed in (0, 1)),
        # entries below zero
        pytest.param(lambda: (v := signed_system(0), separated_by(v)), id="signed-dim1"),
        # 2 entry values and 0..dim squared norms: at dim 253 their padded
        # values no longer fit a 256-entry palette, and still fit int8 blocks
        *(pytest.param(lambda dim=dim: (v := indicator_system(dim, 0), separated_by(v)),
                       id=f"indicators-dim{dim}") for dim in (252, 253)),
    ])
    def test_codes_write_the_float_states(self, system):
        # the float cast pads in float64 from float entries: the reference
        v, m = system()
        assert v.a.dtype == v.b.dtype == np.int8
        e, want = (assemble_shared_randomness_states(x, m) for x in (v, float_cast(v)))
        assert e.system is v
        for side in ("alphas", "betas"):
            assert np.array_equal(bits(getattr(e, side)), bits(getattr(want, side)))
        assert (e.delta0, e.delta1) == (want.delta0, want.delta1)
        assert payload_text(states_of(e)) == payload_text(states_of(want))
        blocks = io.embedding_payload(e)["system"]
        assert (blocks["a"]["dtype"], blocks["b"]["dtype"]) == ("|i1", "|i1")
        parsed = round_trip(e)
        assert parsed.system.a.dtype == parsed.system.b.dtype == np.int8
        assert np.array_equal(parsed.system.a, v.a) and np.array_equal(parsed.system.b, v.b)
        assert (parsed.delta0, parsed.delta1, parsed.system.norm_bound) == (
            e.delta0, e.delta1, v.norm_bound)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64,
                                       np.int8, np.int16, np.int32, np.int64])
    def test_every_integer_dtype_codes_the_float_states(self, dtype):
        # VectorSystem holds any integer dtype as it is; its squared norms
        # are summed in int64, which uint64 reaches only by an unsafe (here
        # exact) cast, and its entries are written as the same int8 blocks
        v8 = indicator_system(4, 0)
        v = VectorSystem(v8.a.astype(dtype), v8.b.astype(dtype), v8.norm_bound)
        m = separated_by(v8)
        e, want = (assemble_shared_randomness_states(x, m) for x in (v, float_cast(v8)))
        assert v.a.dtype == v.b.dtype == dtype
        for side in ("alphas", "betas"):
            assert np.array_equal(bits(getattr(e, side)), bits(getattr(want, side)))
        assert payload_text(e) == payload_text(assemble_shared_randomness_states(v8, m))

    def test_random_protocols_have_several_slack_values(self):
        v = compile_one_way(random_one_way(3, 0))
        assert len(np.unique(np.einsum("rxd,rxd->rx", v.b, v.b))) >= 4

    @pytest.mark.parametrize("values", [
        pytest.param(np.arange(-150, 151), id="range-over-256"),
        pytest.param(np.arange(0, 200), id="values-and-slacks-over-256"),
    ])
    def test_more_than_256_values_take_the_float_path(self, values):
        # one slice, one input per value; the second coordinate varies the
        # squared norm.  Entries past int8 are written as float64 blocks,
        # which read back as the float cast
        a = np.stack([values, values[::-1]], axis=1)[None]
        big_l = float(np.sqrt(np.einsum("rxd,rxd->rx", a, a).max()))
        v = VectorSystem(a, a[:, :3], big_l)
        m = separated_by(v)
        e, want = (assemble_shared_randomness_states(x, m) for x in (v, float_cast(v)))
        text = payload_text(e)
        assert [json.loads(text)["system"][side]["dtype"] for side in "ab"] == ["<f8", "<f8"]
        assert text == payload_text(want)
        assert round_trip(e).system.a.dtype == np.float64
        for side in ("alphas", "betas"):
            assert np.array_equal(bits(getattr(e, side)), bits(getattr(want, side)))

    def test_non_unit_rows_are_refused_as_by_the_float_path(self):
        # L^2 underflows to 0 at 1e-200, so zero slices would get no slack and
        # pad into zero rows, and to a subnormal at 1e-160, whose root gives
        # zero slices a norm of 0.9999944: such bounds are refused, integer
        # and float alike
        zeros = np.zeros((2, 3, 2), dtype=np.int8)
        for a, bound in itertools.product((zeros, zeros.astype(np.float64)), (1e-200, 1e-160)):
            with pytest.raises(ValueError, match=rf"^norm bound {bound} must have a finite float64 "
                                                 r"square of at least 2.2250738585072014e-308$"):
                VectorSystem(a, a, bound)
        # at a bound whose square is normal, zero slices pad into unit states
        e = CompiledEmbedding(VectorSystem(zeros, zeros, 1.5e-154), 0.0, 1.0)
        assert ThresholdEmbedding(e.alphas, e.betas, 0.0, 1.0).dimension == 8

    @pytest.mark.parametrize("bound", [1e200, 1.35e154, math.inf, math.nan])
    def test_a_bound_without_a_finite_square_is_refused(self, bound):
        # 1e200 ** 2 raises OverflowError on a Python float, and on an inf or
        # NaN bound no state is a unit vector: refused before any state is built
        zeros = np.zeros((2, 3, 2), dtype=np.int8)
        for a in (zeros, zeros.astype(np.float64)):
            with pytest.raises(ValueError, match="must have a finite float64 square"):
                VectorSystem(a, a, bound)
        assert VectorSystem(zeros, zeros, 1.3e154).norm_bound == 1.3e154

    def test_a_document_with_such_a_bound_is_malformed(self):
        # as the system of an embedding, of float or of int8 sides
        for zeros in (np.zeros((2, 3, 2)), np.zeros((2, 3, 2), dtype=np.int8)):
            system = {"norm_bound": 1e200, "a": io.integer_block(zeros),
                      "b": io.integer_block(zeros)}
            doc = io.document("embedding", {"delta0": 0.0, "delta1": 1.0, "system": system})
            with pytest.raises(io.DocumentError, match="^invalid vector system: norm bound 1e"):
                io.parse_embedding(json.loads(json.dumps(doc)))


class TestEq9Temporaries:
    """Each temporary of EQ-9's compile, acceptance product and verification
    is a block of at most CHUNK entries, or the system's int8 copy of b."""

    @pytest.fixture(scope="class")
    def eq9(self):
        p, m = eq_parity_protocol(9), eq_matrix(9)
        v = compile_one_way(p)
        return p, m, v, assemble_shared_randomness_states(v, m)

    def test_compile(self, eq9):
        p = eq9[0]
        _, peak = traced_peak(lambda: compile_one_way(p))
        assert peak <= 1.5 * MiB

    def test_one_way_compile_takes_its_table_uncopied(self, eq9):
        # the one-way table is held in the system's order: its compile forms
        # only a, so it peaks b's bytes below the SMP compile, which forms a and b
        one_way = eq_parity_one_way_protocol(9)
        v, peak = traced_peak(lambda: compile_one_way(one_way))
        _, smp_peak = traced_peak(lambda: compile_one_way(eq9[0]))
        assert peak + v.b.nbytes <= smp_peak + 64 * 1024
        # written in the (2^c, |Y|, |R|) shape it is read in
        assert io.protocol_payload(one_way)["bob_accept"] == eq9[0].bob_accept.tolist()

    def test_acceptance_matrix(self, eq9):
        accept, peak = traced_peak(eq9[2].acceptance_matrix)
        assert peak <= accept.nbytes + 1.5 * MiB

    def test_verify(self, eq9):
        # float64 states: verifying the compiled system has its own budget
        # in test_verify_holds_one_state_block
        _, m, _, compiled = eq9
        e = states_of(compiled)
        report, peak = traced_peak(lambda: verify_threshold_embedding(e, m))
        assert peak <= 1.5 * MiB
        # every off-diagonal pair ties, as every diagonal one does, across the
        # four row blocks of 128: the first pair of each side is reported
        assert report.valid
        assert (report.worst_zero_pair, report.worst_one_pair) == ((0, 1), (0, 0))
        assert report.worst_zero_side == pytest.approx(1 / 16, rel=1e-12)
        assert report.worst_one_side == pytest.approx(1 / 4, rel=1e-12)


    def test_classical_projection_pads_only_its_pair(self, eq9):
        # the two rows read take 16 kB; padding a whole side would take 8 MiB
        _, _, _, compiled = eq9
        args = dict(pair=(3, 5), k=2, reps=4, precision_bits=8, seed=0)
        est, peak = traced_peak(lambda: classical_projection_protocol(compiled, **args))
        assert peak <= 1.5 * MiB
        assert est == classical_projection_protocol(states_of(compiled), **args)


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

    @pytest.mark.parametrize("chunk", [1 << 16, 100, 1])
    def test_estimate_is_the_same_at_any_block_size(self, monkeypatch, chunk):
        # 50 repetitions of 3 x 12 maps: CHUNK = 2^16 draws them in one block,
        # 100 and 1 one repetition a block
        e = eq_orthonormal_embedding(12)
        args = dict(pair=(2, 5), k=3, reps=50, precision_bits=6, seed=4)
        whole = classical_projection_protocol(e, **args)
        monkeypatch.setattr(compiler, "CHUNK", chunk)
        assert classical_projection_protocol(e, **args) == whole

    def test_holds_one_block_of_maps(self):
        # compiled EQ-7 states of dimension 512 and 800 maps of 4 x 512: all
        # of them at once traced 13.4 MiB
        compiled = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(7)),
                                                     eq_matrix(7))
        args = dict(pair=(3, 3), k=4, reps=800, precision_bits=16, seed=0)
        est, peak = traced_peak(lambda: classical_projection_protocol(compiled, **args))
        assert peak <= 2 * MiB
        assert est == pytest.approx(0.5, abs=0.1)  # <alpha_x, beta_x> = 1/2 on EQ

    def test_rejects_bad_parameters(self):
        e = eq_orthonormal_embedding(1)
        with pytest.raises(ValueError):
            classical_projection_protocol(e, (0, 0), k=0, reps=10, precision_bits=8, seed=0)
        with pytest.raises(ValueError):
            classical_projection_protocol(e, (0, 0), k=4, reps=10, precision_bits=1, seed=0)
