import base64
import json
import os
import shlex
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import zlib
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import qfpsim
from qfpsim import cli, embeddings, fingerprint, io
from qfpsim.bounds import maximize_margin_heuristic
from qfpsim.cli import main
from qfpsim.compiler import (
    VectorSystem,
    assemble_shared_randomness_states,
    compile_one_way,
    compile_smp,
)
from qfpsim.embeddings import (
    CompiledEmbedding,
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    realization_to_embedding,
    verify_threshold_embedding,
)
from qfpsim.fingerprint import exact_pair_errors, protocol_from_embedding, run_protocol
from qfpsim.problems import (
    eq_matrix,
    eq_parity_one_way_protocol,
    eq_parity_protocol,
    ham_matrix,
    ham_parity_embedding,
)
from qfpsim.projections import project_vectors, verify_distortion
from tests.test_compiler import random_one_way, separated_by
from tests.test_embeddings import eq_explicit_realization, eq_orthonormal_embedding


DATA = Path(__file__).resolve().parent / "data"
# EQ-3 as compile wrote it at format 1.4: palette-coded float64 states
EQ3_FORMAT_1_4 = str(DATA / "eq3-format-1.4.json")
EQ3_COMPILED_1_5 = str(DATA / "eq3-compiled-1.5.json")


def write_doc(path, kind, payload):
    io.dump(io.document(kind, payload), str(path))
    return str(path)


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)


def states_of(e):
    """The float64 states a compiled embedding stands for, at its thresholds."""
    return ThresholdEmbedding(e.alphas, e.betas, e.delta0, e.delta1)


def write_states(path, n):
    """EQ-n's compiled states as float64 ``alphas`` and ``betas`` blocks (the
    form ``compile`` wrote before format 1.5), written to ``path``."""
    e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(n)), eq_matrix(n))
    return write_doc(path, "embedding", io.embedding_payload(states_of(e)))


def block_array(block):
    """A float block's array, decoded with numpy and zlib alone."""
    raw = base64.b64decode(block["b64"])
    if block.get("codec") in ("zlib", "zlib-palette"):
        raw = zlib.decompress(raw)
    if block.get("codec") == "zlib-palette":
        codes = np.frombuffer(raw, dtype=np.uint8)
        return np.array(block["palette"], dtype="<f8")[codes].reshape(block["shape"])
    return np.frombuffer(raw, dtype="<f8").reshape(block["shape"])


def b64(data):
    return base64.b64encode(data).decode()


def put_array(block, arr):
    """Replace a float block's contents by ``arr``, in the block's codec."""
    bits = np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view("<u8")
    if block.get("codec") == "zlib-palette":
        palette, codes = np.unique(bits, return_inverse=True)
        block["palette"] = palette.view("<f8").tolist()
        data = codes.astype(np.uint8).tobytes()
    else:
        data = bits.tobytes()
    block["b64"] = b64(zlib.compress(data) if block.get("codec") else data)


def recode(block, codec):
    """Rewrite a float block in ``codec``: "zlib-palette", "zlib", or None for
    the raw bytes of the 1.1 form."""
    arr = block_array(block)
    block.pop("palette", None)
    block.pop("codec", None)
    if codec is not None:
        block["codec"] = codec
    put_array(block, arr)


def distinct_patterns(arr):
    return np.unique(np.ascontiguousarray(arr, dtype="<f8").view("<u8")).size


def bits_of(x):
    return struct.pack("<d", x)


def as_lists(payload, *names):
    """Replace the float blocks ``names`` of ``payload`` by nested lists, the
    1.0 form the reader still accepts, so a test can edit single entries."""
    for name in names:
        payload[name] = block_array(payload[name]).tolist()


# Edge cases of float64: signed zero and the smallest subnormal, which a unit
# vector can hold, and the largest finite values, which only `vectors` can.
TINY = [-0.0, 5e-324, -5e-324]
HUGE = [1.7976931348623157e308, -1.7976931348623157e308]


def float_arrays(shape, bound, specials):
    elements = st.one_of(st.sampled_from(specials), st.floats(-bound, bound))
    return arrays(np.float64, shape, elements=elements)


def unit_rows(rows, cols):
    # a leading 1.0 keeps each row a unit vector within tolerance, while the
    # other entries carry the edge cases unscaled
    return float_arrays((rows, cols), 1e-9, TINY).map(
        lambda tail: np.hstack([np.ones((rows, 1)), tail]))


def float_kind_case(kind, draw):
    """A random object of ``kind``: its payload, its parser, and for each float
    field the array sent and how to read it back from the parsed object.  A
    vector system is written as the ``system`` of an embedding."""
    rows, other, cols = (draw(st.integers(1, 3)) for _ in range(3))
    if kind == "vectors":
        v = draw(float_arrays((rows, cols), HUGE[0], TINY + HUGE))
        return io.vectors_payload(v), io.parse_vectors, {"vectors": (v, lambda parsed: parsed)}
    if kind == "vector_system":  # a float system, as an embedding's ``system``
        shape = (draw(st.integers(1, 3)), rows, cols)
        a = draw(float_arrays(shape, 1e150, TINY))
        b = draw(float_arrays((shape[0], other, cols), 1e150, TINY))
        e = CompiledEmbedding(VectorSystem(a, b, 1e154), 0.25, 0.75)
        return (io.embedding_payload(e), io.parse_embedding,
                {"a": (a, attrgetter("system.a")), "b": (b, attrgetter("system.b"))})
    alphas, betas = draw(unit_rows(rows, cols)), draw(unit_rows(other, cols))
    if kind == "embedding":
        payload = io.embedding_payload(ThresholdEmbedding(alphas, betas, 0.25, 0.75))
        parse = io.parse_embedding
    else:
        payload = io.realization_payload(Realization(alphas, betas, 0.5))
        parse = io.parse_realization
    return payload, parse, {"alphas": (alphas, attrgetter("alphas")),
                            "betas": (betas, attrgetter("betas"))}


def child_env():
    # Child processes must import the qfpsim under test, whatever their cwd:
    # put the directory holding the imported package first on PYTHONPATH
    # (a relative PYTHONPATH=src would not resolve from a tmp_path cwd).
    # PYTHONUNBUFFERED is dropped: it would hide an exit that skips a flush.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    root = str(Path(qfpsim.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited] if inherited else [root])
    return env


def check_sign_matrix_round_trip(path, m):
    """Write ``m`` to ``path``: its entries are one int8 block, of its own
    bytes, or of their packed bits when every entry is 0 or 1, and read back
    they are ``m``'s own int8 entries."""
    io.dump(io.document("sign_matrix", io.sign_matrix_payload(m)), str(path))
    block = read_doc(path)["payload"]["entries"]
    codec, data = ("zlib-bits", np.packbits(m.entries)) if m.entries.min() >= 0 else (
        "zlib", m.entries)
    assert (block["dtype"], block["codec"], block["shape"]) == ("|i1", codec, [m.rows, m.cols])
    assert zlib.decompress(base64.b64decode(block["b64"])) == data.tobytes()
    got = io.parse_sign_matrix(io.load(str(path)))
    assert got.entries.dtype == np.int8 and got.entries.tobytes() == m.entries.tobytes()
    assert got.entries.shape == m.entries.shape


class TestDocuments:
    def test_sign_matrix_round_trip(self):
        m = eq_matrix(2)
        doc = io.document("sign_matrix", io.sign_matrix_payload(m))
        parsed = io.parse_sign_matrix(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(parsed.entries, m.entries)

    @pytest.mark.parametrize("entries", [
        [[1]], [[-1]], np.full((3, 5), -1), np.ones((1, 40)),
        [[0, 0, 0], [0, 1, -1], [0, -1, 0]],
    ], ids=["1x1-plus", "1x1-minus", "single-valued", "one-row", "zero-row-and-column"])
    def test_sign_matrix_block_round_trip(self, tmp_path, entries):
        check_sign_matrix_round_trip(tmp_path / "m.json", SignMatrix(entries))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sign_matrix_block_round_trip_bit_exact(self, tmp_path_factory, data):
        shape = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))
        values = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, unique=True))
        entries = data.draw(arrays(np.int8, shape, elements=st.sampled_from(values)))
        entries[data.draw(arrays(bool, shape[0])), :] = 0  # whole zero rows and columns
        entries[:, data.draw(arrays(bool, shape[1]))] = 0
        if not entries.any():
            entries[data.draw(st.integers(0, shape[0] - 1)),
                    data.draw(st.integers(0, shape[1] - 1))] = data.draw(st.sampled_from([-1, 1]))
        check_sign_matrix_round_trip(tmp_path_factory.mktemp("m") / "m.json", SignMatrix(entries))

    @pytest.mark.parametrize("text", [
        '{"format_version": "1.3", "kind": "sign_matrix", "payload": {"rows": 2, "cols": 3,'
        ' "entries": [[1, 0, -1], [-1, 1, 1]]}, "provenance": {"command": "", "seed": null,'
        ' "version": "0.0.0"}}',
        # a hand-written document: format 1.2 and no provenance
        '{"format_version": "1.2", "kind": "sign_matrix", "payload": {"rows": 2, "cols": 2,'
        ' "entries": [[1, 0], [0, -1]]}}',
    ], ids=["format-1.3", "hand-written-1.2"])
    def test_list_sign_matrix_document_loads(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text + "\n")
        m = io.parse_sign_matrix(io.load(str(path)))
        assert m.entries.dtype == np.int8
        assert np.array_equal(m.entries, json.loads(text)["payload"]["entries"])
        assert main(["margin", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 0

    def test_embedding_round_trip_bit_identical(self):
        e = eq_orthonormal_embedding(3)
        doc = json.loads(json.dumps(io.document("embedding", io.embedding_payload(e))))
        parsed = io.parse_embedding(doc)
        assert parsed.delta0 == e.delta0 and parsed.delta1 == e.delta1
        np.testing.assert_array_equal(parsed.alphas, e.alphas)

    def test_realization_round_trip(self):
        r = eq_explicit_realization(2)
        doc = json.loads(json.dumps(io.document("realization", io.realization_payload(r))))
        parsed = io.parse_realization(doc)
        assert parsed.gamma == r.gamma
        np.testing.assert_array_equal(parsed.betas, r.betas)

    def test_vector_system_round_trip(self):
        # as the system of a compiled embedding, its only place in a document
        v = compile_smp(eq_parity_protocol(2))
        payload = io.embedding_payload(CompiledEmbedding(v, 0.25, 0.75))
        assert payload["system"] == io.vector_system_payload(v)
        doc = json.loads(json.dumps(io.document("embedding", payload)))
        parsed = io.parse_embedding(doc).system
        assert parsed.a.dtype == parsed.b.dtype == np.int8
        np.testing.assert_array_equal(parsed.a, v.a)
        np.testing.assert_array_equal(parsed.b, v.b)
        assert parsed.norm_bound == v.norm_bound

    def test_protocol_round_trip_both_models(self):
        from qfpsim.problems import eq_parity_one_way_protocol

        for p in (eq_parity_protocol(2), eq_parity_one_way_protocol(2)):
            doc = json.loads(json.dumps(io.document("protocol", io.protocol_payload(p))))
            parsed = io.parse_protocol(doc)
            assert type(parsed) is type(p)
            np.testing.assert_array_equal(parsed.alice_messages, p.alice_messages)

    @pytest.mark.parametrize("kind", ["embedding", "realization", "vector_system", "vectors"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_float_arrays_round_trip_bit_exact(self, kind, data):
        payload, parse, fields = float_kind_case(kind, data.draw)
        doc_kind = "embedding" if kind == "vector_system" else kind
        parsed = parse(json.loads(json.dumps(io.document(doc_kind, payload))))
        blocks = payload.get("system", payload)
        for name, (sent, read) in fields.items():
            assert "b64" in blocks[name]
            # np.asarray decodes an embedding's palette-coded rows
            got = np.asarray(read(parsed))
            assert np.array_equal(sent.view(np.uint64), got.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dump_load_round_trip_bit_exact(self, tmp_path_factory, data):
        shape = (data.draw(st.integers(0, 40)), data.draw(st.integers(0, 40)))
        compressible = data.draw(st.booleans())
        if compressible:
            sent = data.draw(arrays(np.float64, shape,
                                    elements=st.sampled_from([0.0, 0.5, -0.5] + TINY + HUGE)))
        else:
            sent = np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal(shape)
            spots = data.draw(st.lists(st.integers(0, max(sent.size - 1, 0)), max_size=5))
            sent.reshape(-1)[spots[: sent.size]] = data.draw(st.sampled_from(TINY + HUGE))
        path = str(tmp_path_factory.mktemp("blocks") / "v.json")
        io.dump(io.document("vectors", io.vectors_payload(sent)), path)
        palette = 1 <= distinct_patterns(sent) <= 256
        assert read_doc(path)["payload"]["vectors"]["codec"] == (
            "zlib-palette" if palette else "zlib")
        got = io.parse_vectors(io.load(path))
        assert got.shape == sent.shape
        assert np.array_equal(got.view(np.uint64), sent.view(np.uint64))

    def test_inflate_bounded_by_the_declared_shape(self, tmp_path):
        # 64 MiB of zeros in a ~64 kB stream, declared as four floats
        deflater = zlib.compressobj(1)
        stream = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(64)) + deflater.flush()
        block = {"dtype": "<f8", "shape": [1, 4], "codec": "zlib", "b64": b64(stream)}
        path = write_doc(tmp_path / "v.json", "vectors", {"vectors": block})
        doc = io.load(path)
        tracemalloc.start()
        try:
            with pytest.raises(io.DocumentError, match="more than 32 bytes"):
                io.parse_vectors(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_memory_bounded_by_the_declared_shape(self, tmp_path):
        # 8 MiB of zeros in a ~37 kB stream that fills the shape it declares
        need = 8 << 20
        block = {"dtype": "<f8", "shape": [1, need // 8], "codec": "zlib",
                 "b64": b64(zlib.compress(bytes(need), 1))}
        path = write_doc(tmp_path / "v.json", "vectors", {"vectors": block})
        doc = io.load(path)
        tracemalloc.start()
        try:
            got = io.parse_vectors(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (1, need // 8) and not got.any()
        assert peak < 2 * need + (1 << 20)  # the inflated bytes and the array

    def test_palette_memory_bounded_by_the_declared_shape(self, tmp_path):
        # 1 Mi codes decode into 8 MiB of floats and nothing else of that size
        count = 1 << 20
        block = {"dtype": "<f8", "shape": [1, count], "codec": "zlib-palette",
                 "palette": [0.5], "b64": b64(zlib.compress(bytes(count), 1))}
        path = write_doc(tmp_path / "v.json", "vectors", {"vectors": block})
        doc = io.load(path)
        tracemalloc.start()
        try:
            got = io.parse_vectors(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (1, count) and (got == 0.5).all()
        assert peak < 9 * count + (1 << 20)  # the codes and the array

    @pytest.mark.parametrize("distinct", [1, 255, 256, 257])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_palette_boundary_round_trip(self, distinct, data):
        # float64 edge cases first, then other finite values, each bit pattern once
        specials = data.draw(st.permutations([-0.0, 0.0, 5e-324, 1e300, -1e300]))
        others = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=distinct, max_size=distinct, unique_by=bits_of))
        patterns = {}
        for x in [*specials, *others]:
            patterns.setdefault(bits_of(x), x)
        values = np.array(list(patterns.values())[:distinct])
        cols = data.draw(st.integers(1, 4))
        rows = -(-distinct // cols) + data.draw(st.integers(0, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        picks = np.concatenate([np.arange(distinct),
                                rng.integers(0, distinct, rows * cols - distinct)])
        sent = values[rng.permutation(picks)].reshape(rows, cols)
        block = io.vectors_payload(sent)["vectors"]
        if distinct <= 256:
            assert block["codec"] == "zlib-palette" and len(block["palette"]) == distinct
        else:
            assert block["codec"] == "zlib" and "palette" not in block
        doc = json.loads(json.dumps(io.document("vectors", {"vectors": block})))
        for got in (io.parse_vectors(doc), block_array(doc["payload"]["vectors"])):
            assert np.array_equal(got.view(np.uint64), sent.view(np.uint64))

    @pytest.mark.parametrize("chunk", [1, 7, 330])
    def test_chunked_encoder_writes_the_one_shot_stream(self, monkeypatch, chunk):
        # _float_block checks, codes and deflates one CHUNK of entries at a
        # time; its stream is zlib.compress(all of the data, 1) at any CHUNK
        monkeypatch.setattr(io, "CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for arr in (rng.standard_normal((30, 11)), rng.choice([0.5, -0.25, 0.0], (30, 11))):
            block = io._float_block(arr)
            data = arr.reshape(-1).view("<u8")
            if block["codec"] == "zlib-palette":
                data = np.searchsorted(np.array(block["palette"]).view("<u8"), data)
                data = data.astype(np.uint8)
            assert base64.b64decode(block["b64"]) == zlib.compress(data.tobytes(), 1)
            arr[-1, -1] = np.inf
            with pytest.raises(ValueError, match="non-finite"):
                io._float_block(arr)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_block_round_trip(self, data):
        # any shape, empty and 0-d ones and sizes off a multiple of 8 among
        # them, of any integer dtype: read back bit-exact as int8, from a bit
        # block exactly when every entry is 0 or 1
        dtype = data.draw(st.sampled_from(["|i1", "<i2", "<i8", "|u1"]))
        low = data.draw(st.sampled_from([0, 0, 0, -1, -127]) if dtype != "|u1" else st.just(0))
        high = data.draw(st.sampled_from([low, 1, 1, 2, 127]))
        shape = data.draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=11))
        arr = data.draw(arrays(dtype, shape, elements=st.integers(min(low, high), high)))
        block = json.loads(json.dumps(io.integer_block(arr)))
        assert block["codec"] == ("zlib-bits" if np.isin(arr, [0, 1]).all() else "zlib")
        got = io._array({"a": block}, "a")
        assert got.dtype == np.int8 and got.shape == arr.shape
        assert got.tobytes() == arr.astype(np.int8).tobytes()

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_coded_rows_write_as_their_decoded_array(self, monkeypatch, chunk):
        # a system side of integers in [-127, 127] is the stream of
        # zlib.compress(its int8 bytes, 1), or of its np.packbits bytes when
        # every entry is 0 or 1 (so when it is empty), whatever its integer
        # dtype and at any CHUNK, and is read back as int8; past int8, or of
        # floats, it is a float block
        monkeypatch.setattr(io, "CHUNK", chunk)
        v = compile_one_way(eq_parity_protocol(5))
        for side in (v.a, v.b, v.a[:, :0]):
            for arr in (side, side.astype(np.uint64), -127 * side.astype(np.int16)):
                block = io.integer_block(arr)
                assert block["dtype"] == "|i1" and block["shape"] == list(arr.shape)
                bits = set(np.unique(arr)) <= {0, 1}
                assert block["codec"] == ("zlib-bits" if bits else "zlib")
                data = np.packbits(arr) if bits else arr.astype(np.int8)
                assert base64.b64decode(block["b64"]) == zlib.compress(data.tobytes(), 1)
                got = io._array({"a": block}, "a")
                assert got.dtype == np.int8 and np.array_equal(got, arr)
        for arr in (np.full((1, 1, 1), 128), np.full((1, 1, 1), 1.0)):
            assert io.integer_block(arr) == io._float_block(arr)

    def test_empty_block_is_zlib(self):
        block = io.vectors_payload(np.zeros((0, 3)))["vectors"]
        assert block["codec"] == "zlib" and io.parse_vectors(
            {"kind": "vectors", "payload": {"vectors": block}}).shape == (0, 3)

    def test_format_1_2_zlib_block_document_loads(self, tmp_path):
        # a block of three values, which the writer now palette-codes
        sent = np.array([[0.0, 0.03125, -0.03125], [-0.0, 0.0, 0.03125]])
        block = {"dtype": "<f8", "shape": [2, 3], "codec": "zlib",
                 "b64": b64(zlib.compress(sent.tobytes(), 1))}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "format_version": "1.2", "kind": "vectors", "payload": {"vectors": block},
            "provenance": {"command": "", "seed": None, "version": "0.0.0"}}))
        got = io.parse_vectors(io.load(str(path)))
        assert np.array_equal(got.view(np.uint64), sent.view(np.uint64))
        assert io.vectors_payload(sent)["vectors"]["codec"] == "zlib-palette"

    def test_format_1_1_raw_block_document_loads(self, tmp_path):
        sent = np.array([[0.6, -0.0, 5e-324], [HUGE[0], HUGE[1], -1.5]])
        block = {"dtype": "<f8", "shape": [2, 3], "b64": b64(sent.tobytes())}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "format_version": "1.1", "kind": "vectors", "payload": {"vectors": block},
            "provenance": {"command": "", "seed": None, "version": "0.0.0"}}))
        got = io.parse_vectors(io.load(str(path)))
        assert np.array_equal(got.view(np.uint64), sent.view(np.uint64))

    def test_format_1_0_list_document_loads(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(
            '{"format_version": "1.0", "kind": "embedding",'
            ' "payload": {"dimension": 2, "delta0": 0.1, "delta1": 0.9,'
            ' "alphas": [[0.6, 0.8], [-0.0, 1.0]], "betas": [[0.8, -0.6]]},'
            ' "provenance": {"command": "", "seed": null, "version": "0.0.0"}}'
        )
        parsed = io.parse_embedding(io.load(str(path)))
        alphas, betas = np.array([[0.6, 0.8], [-0.0, 1.0]]), np.array([[0.8, -0.6]])
        assert np.array_equal(parsed.alphas.view(np.uint64), alphas.view(np.uint64))
        assert np.array_equal(parsed.betas.view(np.uint64), betas.view(np.uint64))

    def test_unknown_kind_rejected(self):
        with pytest.raises(io.DocumentError):
            io.document("nonsense", {})

    def test_kind_mismatch_rejected(self):
        doc = io.document("embedding", io.embedding_payload(eq_orthonormal_embedding(2)))
        with pytest.raises(io.DocumentError, match="expected"):
            io.parse_sign_matrix(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(io.DocumentError, match="cannot read"):
            io.load(str(tmp_path / "absent.json"))

    def test_corrupt_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(io.DocumentError):
            io.load(str(bad))


def stream_bytes(block):
    """The byte count that the stream of EQ-1's 16-entry alphas block holds."""
    return (1 if block.get("codec") == "zlib-palette" else 8) * 16


# Edits that make a float block malformed, in any form of block ...
BLOCK_EDITS = [
    pytest.param(lambda block: block.update(dtype=">f8"), id="dtype"),
    pytest.param(lambda block: block.update(shape=[2.0, 8]), id="float-shape"),
    pytest.param(lambda block: block.update(shape=[-2, -8]), id="negative-shape"),
    pytest.param(lambda block: block.update(shape="2x8"), id="shape-not-list"),
    pytest.param(lambda block: block.update(b64="not base64!"), id="not-base64"),
    pytest.param(lambda block: block.update(b64=block["b64"][:-12]), id="short-bytes"),
    pytest.param(lambda block: block.update(shape=[3, 8]), id="byte-count"),
    pytest.param(lambda block: put_array(block, np.full(16, np.nan)), id="nan-bytes"),
    pytest.param(lambda block: put_array(block, np.full(16, -np.inf)), id="inf-bytes"),
    pytest.param(lambda block: put_array(
        block, np.vstack([np.zeros(8), block_array(block)[1:]])), id="zero-row"),
    pytest.param(lambda block: block.update(shape=[16]), id="one-d-shape"),
    pytest.param(lambda block: block.update(codec="lz4"), id="unknown-codec"),
]
# ... in its zlib stream ...
ZLIB_EDITS = [
    pytest.param(lambda block: block.update(
        b64=b64(zlib.compress(b"")[:2] + b"not a deflate stream")), id="corrupt-zlib"),
    pytest.param(lambda block: block.update(
        b64=b64(zlib.compress(bytes(stream_bytes(block)))[:-6])), id="truncated-zlib"),
    pytest.param(lambda block: put_array(block, np.zeros(15)), id="short-inflate"),
    pytest.param(lambda block: put_array(block, np.zeros(17)), id="over-long-inflate"),
    pytest.param(lambda block: block.update(
        b64=b64(zlib.compress(bytes(stream_bytes(block))) + b"\0")), id="trailing-bytes"),
]
# ... and in its palette.
PALETTE_EDITS = [
    pytest.param(lambda block: block.update(
        b64=b64(zlib.compress(bytes([len(block["palette"])] * 16)))), id="code-past-palette"),
    pytest.param(lambda block: block.update(palette=[]), id="empty-palette"),
    pytest.param(lambda block: block.update(palette=[i / 257 for i in range(257)]),
                 id="257-entry-palette"),
    pytest.param(lambda block: block.update(palette=0.5), id="palette-not-list"),
    pytest.param(lambda block: block["palette"].__setitem__(0, float("nan")), id="nan-entry"),
    pytest.param(lambda block: block["palette"].__setitem__(0, float("inf")), id="inf-entry"),
    pytest.param(lambda block: block["palette"].__setitem__(0, True), id="bool-entry"),
    pytest.param(lambda block: block["palette"].__setitem__(0, "0.5"), id="string-entry"),
    pytest.param(lambda block: block["palette"].__setitem__(0, 10**400), id="huge-int-entry"),
    pytest.param(lambda block: block.update(codec="zlib"), id="palette-with-zlib"),
    pytest.param(lambda block: block.pop("codec"), id="palette-with-raw"),
    pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes(8 * 16)))),
                 id="float-sized-stream"),
]


def check_malformed_alphas_exit_1(tmp_path, capsys, edit, codec):
    """Write EQ-1's states, rewrite their alphas block in ``codec`` (see
    ``recode``), apply ``edit`` to the block, and expect verify to exit 1."""
    emb = write_states(tmp_path / "emb.json", 1)
    doc = read_doc(emb)
    block = doc["payload"]["alphas"]
    assert block["shape"] == [2, 8] and block["codec"] == "zlib-palette"
    recode(block, codec)
    edit(block)
    with open(emb, "w") as fh:
        json.dump(doc, fh)
    assert main(["verify", "--builtin", "eq", "--n", "1", "--embedding", str(emb)]) == 1
    err = capsys.readouterr().err
    # a block that decodes is then checked row by row, and names the row: alphas[i]
    assert "input error" in err and ("'alphas'" in err or "alphas[" in err)
    assert "Traceback" not in err


def check_malformed_entries_exit_1(tmp_path, capsys, block, message=""):
    """Write a 2 x 2 sign matrix document of entries ``block`` and expect
    margin to exit 1 naming 'entries', with ``message`` in its error."""
    path = tmp_path / "m.json"
    with open(path, "w") as fh:  # Python's json writes a NaN token
        json.dump(io.document("sign_matrix", {"rows": 2, "cols": 2, "entries": block}), fh)
    assert main(["margin", "--matrix", str(path)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "'entries'" in err and "Traceback" not in err
    assert message in err


class TestCliExitCodes:
    def test_margin_builtin_success(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["margin", "--builtin", "ip", "--k", "2", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["kind"] == "report"
        assert doc["payload"]["upper"] == pytest.approx(0.5, abs=1e-6)

    def test_ham_heuristic_finds_a_witness(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["margin", "--builtin", "ham", "--n", "5", "--d", "2", "--heuristic",
                     "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        assert 0 < payload["heuristic_lower"] <= payload["upper"]

    def test_ip4_heuristic_stops_at_the_forster_bound(self, tmp_path):
        # IP-4's factored start meets the Forster bound: the witness stops there
        out = tmp_path / "r.json"
        assert main(["margin", "--builtin", "ip", "--k", "4", "--heuristic",
                     "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        assert 0 <= payload["upper"] - payload["heuristic_lower"] <= 1e-12

    def test_parse_error_exits_1(self, capsys):
        assert main(["margin", "--matrix", "/nonexistent.json"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["margin", "--builtin", "bogus"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        (["compile", "--builtin", "eq", "--n", "2", "--target-dim", "4"],
         "unrecognized arguments: --target-dim 4"),
        (["compile", "--builtin", "eq", "--n", "2", "--reduce"],
         "unrecognized arguments: --reduce"),
        (["compile", "--builtin", "eq", "--n", "1", "--protocol", "PROTOCOL", "--num-r", "3"],
         "input error: --num-r conflicts with --protocol"),
        (["compile", "--builtin", "eq", "--n", "1", "--protocol", "PROTOCOL", "--model", "smp"],
         "input error: --model conflicts with --protocol"),
        (["compile", "--builtin", "eq", "--n", "1", "--no-assemble", "--reduce",
          "--target-dim", "3"], "unrecognized arguments: --no-assemble --reduce --target-dim 3"),
        (["margin", "--builtin", "ip", "--k", "1", "--n", "7", "--d", "3"],
         "input error: --n, --d conflicts with --builtin ip"),
        (["margin", "--matrix", "MATRIX", "--k", "2"], "input error: --k conflicts with --matrix"),
        (["margin", "--builtin", "ham", "--n", "4"], "input error: --builtin ham requires --n and --d"),
        (["simulate", "--builtin", "eq"], "input error: --builtin eq requires --n"),
        (["margin", "--matrix", "MATRIX", "--builtin", "ip", "--k", "1"],
         "argument --builtin: not allowed with argument --matrix"),
        (["project", "--vectors", "VECTORS", "--dim", "2", "--matrix", "MATRIX"],
         "unrecognized arguments: --matrix"),
        (["verify", "--builtin", "eq", "--n", "1", "--embedding", "E", "--realization", "R"],
         "argument --realization: not allowed with argument --embedding"),
        (["verify", "--builtin", "eq", "--n", "1"],
         "one of the arguments --embedding --realization is required"),
    ], ids=["compile-target-dim", "compile-reduce", "compile-num-r-protocol",
            "compile-model-protocol", "compile-no-assemble-reduce", "builtin-stray-size",
            "matrix-stray-size", "builtin-missing-size", "simulate-missing-size",
            "matrix-and-builtin", "project-matrix", "verify-embedding-and-realization",
            "verify-neither"])
    def test_option_without_effect_exits_1(self, tmp_path, capsys, argv, message):
        docs = {
            "PROTOCOL": write_doc(tmp_path / "p.json", "protocol",
                                  io.protocol_payload(eq_parity_protocol(1))),
            "MATRIX": write_doc(tmp_path / "m.json", "sign_matrix",
                                io.sign_matrix_payload(eq_matrix(1))),
            "VECTORS": write_doc(tmp_path / "v.json", "vectors", io.vectors_payload(np.eye(3))),
        }
        try:  # argparse refuses some of these itself, by exiting
            code = main([docs.get(a, a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 1 and message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["margin", "--matrix", "DOC"],
        ["verify", "--builtin", "eq", "--n", "2", "--embedding", "DOC"],
        ["compile", "--protocol", "DOC", "--builtin", "eq", "--n", "2"],
        ["project", "--vectors", "DOC", "--dim", "2"],
    ], ids=["margin", "verify", "compile", "project"])
    @pytest.mark.parametrize("text", [b"\xff\xfe", b"[" * 200_000],
                             ids=["not-utf-8", "nested-past-the-recursion-limit"])
    def test_an_unreadable_document_is_an_input_error(self, tmp_path, capsys, argv, text):
        # a file that does not decode as UTF-8, or JSON too deep for the parser,
        # is malformed input (exit 1), not a failed precondition (exit 2)
        doc = tmp_path / "doc.json"
        doc.write_bytes(text)
        assert main([str(doc) if a == "DOC" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"qfpsim: input error: cannot read document {str(doc)!r}: ")

    def test_math_error_exits_2(self, capsys):
        # eps = 1/2 leaves no room for a swap-test threshold: a precondition
        assert main(["simulate", "--builtin", "eq", "--n", "2", "--eps", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "eps must lie in (0, 1/2)" in err and "Traceback" not in err

    def test_trials_below_one_exits_2(self, capsys):
        assert main(["simulate", "--builtin", "eq", "--n", "3", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "trials must be >= 1" in err and "Traceback" not in err

    def test_simulate_counts_copies_at_the_least_eps(self, capsys):
        # 2/eps overflows at eps = 5e-324, but ln 2 - ln eps does not
        assert main(["simulate", "--builtin", "eq", "--n", "3", "--eps", "5e-324"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["copies"] == 169560

    def test_simulate_refuses_a_count_past_float64_exits_2(self, tmp_path, capsys):
        # a valid embedding whose gap, 1e-200, squares to 0
        e = ThresholdEmbedding(np.eye(2), np.eye(2), 0.0, 1e-200)
        emb = write_doc(tmp_path / "e.json", "embedding", io.embedding_payload(e))
        assert main(["verify", "--builtin", "eq", "--n", "1", "--embedding", emb]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["valid"] is True
        assert main(["simulate", "--builtin", "eq", "--n", "1", "--embedding", emb]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds float64" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["margin", "simulate", "compile", "project", "verify"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        # numpy's generators refuse it, so every command refuses it before it runs
        argv = {
            "margin": ["--builtin", "eq", "--n", "2"],
            "simulate": ["--builtin", "eq", "--n", "2"],
            "compile": ["--builtin", "eq", "--n", "3", "--num-r", "4"],
            "project": ["--dim", "2", "--vectors",
                        write_doc(tmp_path / "v.json", "vectors", io.vectors_payload(np.eye(4)))],
            "verify": ["--builtin", "eq", "--n", "2", "--embedding",
                       write_states(tmp_path / "e.json", 2)],
        }[command]
        assert main([command, *argv, "--seed", "0", "--out", str(tmp_path / "out.json")]) == 0
        assert main([command, *argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("eps", ["0", "-1", "inf", "nan"])
    def test_project_refuses_an_eps_that_is_not_finite_and_positive(self, eps, tmp_path, capsys):
        vec = write_doc(tmp_path / "v.json", "vectors", io.vectors_payload(np.eye(4)))
        assert main(["project", "--vectors", vec, "--dim", "2", "--eps", eps]) == 2
        err = capsys.readouterr().err
        assert "eps must be a finite positive number" in err and "Traceback" not in err

    def test_margin_of_promise_matrix(self, tmp_path):
        m = SignMatrix([[1, 0], [1, -1]])
        path = write_doc(tmp_path / "m.json", "sign_matrix", io.sign_matrix_payload(m))
        out = tmp_path / "r.json"
        assert main(["margin", "--matrix", path, "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        assert payload["gamma_source"] == "upper_bound" and payload["heuristic_lower"] is None
        assert payload["repetition_lower"] == 1 / payload["upper"] ** 2

    @pytest.mark.parametrize("command, kind, edit, message", [
        ("simulate", "embedding", lambda p: p.update(betas=block_array(p["betas"])[:, 1:].tolist()),
         "alphas and betas must be 2-d with a common dimension"),
        ("simulate", "embedding", lambda p: p.update(delta0=0.5, delta1=0.25),
         "thresholds must satisfy"),
        ("verify", "embedding", lambda p: p.update(delta0=0.5, delta1=0.25),
         "thresholds must satisfy"),
        ("simulate", "embedding", lambda p: put_array(p["alphas"], 2 * block_array(p["alphas"])),
         "alphas[0] is not a unit vector"),
        ("verify", "embedding", lambda p: put_array(p["alphas"], 2 * block_array(p["alphas"])),
         "alphas[0] is not a unit vector (norm 2.0)"),
        ("verify", "embedding",
         lambda p: put_array(p["alphas"], block_array(p["alphas"]) * (np.arange(4) != 1)[:, None]),
         "alphas[1] is not a unit vector (norm 0.0)"),
        ("verify", "realization", lambda p: p.update(gamma=1.5), "margin must lie in (0, 1]"),
        ("verify", "realization", lambda p: p.update(gamma=0), "margin must lie in (0, 1]"),
        ("verify", "realization", lambda p: put_array(p["betas"], block_array(p["betas"]) / 2),
         "betas[0] is not a unit vector (norm "),
    ], ids=["simulate-betas-width", "simulate-delta0-above-delta1",
            "verify-delta0-above-delta1", "simulate-non-unit-alphas", "verify-non-unit-alphas",
            "verify-zero-alphas-row", "verify-gamma-1.5", "verify-gamma-0",
            "verify-non-unit-betas"])
    def test_malformed_vectors_document_exits_1(self, tmp_path, capsys, command, kind, edit,
                                                message):
        if kind == "embedding":
            payload = io.embedding_payload(eq_orthonormal_embedding(4))
        else:
            payload = io.realization_payload(eq_explicit_realization(4))
        edit(payload)
        path = write_doc(tmp_path / "doc.json", kind, payload)
        code = main([command, "--builtin", "eq", "--n", "2", f"--{kind}", path])
        err = capsys.readouterr().err
        assert code == 1 and "input error" in err and message in err
        assert "Traceback" not in err

    def test_ragged_embedding_exits_1(self, tmp_path, capsys):
        emb = write_states(tmp_path / "emb.json", 1)
        doc = read_doc(emb)
        as_lists(doc["payload"], "alphas", "betas")
        doc["payload"]["alphas"][0] = doc["payload"]["alphas"][0][:-1]
        with open(emb, "w") as fh:
            json.dump(doc, fh)
        assert main(["verify", "--builtin", "eq", "--n", "1", "--embedding", str(emb)]) == 1
        assert "'alphas'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", None, "nan"])
    def test_non_numeric_scalar_exits_1(self, tmp_path, capsys, value):
        emb = tmp_path / "emb.json"
        assert main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)]) == 0
        doc = read_doc(emb)
        doc["payload"]["delta0"] = value
        with open(emb, "w") as fh:
            json.dump(doc, fh)
        assert main(["verify", "--builtin", "eq", "--n", "1", "--embedding", str(emb)]) == 1
        assert "'delta0'" in capsys.readouterr().err

    def test_unknown_format_major_version_exits_1(self, tmp_path, capsys):
        m = SignMatrix([[1, -1], [-1, 1]])
        path = write_doc(tmp_path / "m.json", "sign_matrix", io.sign_matrix_payload(m))
        doc = read_doc(path)
        doc["format_version"] = "99.0"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["margin", "--matrix", path]) == 1
        assert "format_version" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("value, token", [(float("nan"), "NaN"), (float("inf"), "Infinity")])
    def test_non_finite_array_entry_exits_1(self, tmp_path, capsys, command, value, token):
        emb = tmp_path / "emb.json"
        write_states(emb, 1)
        doc = read_doc(emb)
        as_lists(doc["payload"], "alphas", "betas")
        doc["payload"]["alphas"][0][0] = value
        with open(emb, "w") as fh:
            json.dump(doc, fh)  # Python's json writes NaN / Infinity tokens
        assert token in emb.read_text()
        assert main([command, "--builtin", "eq", "--n", "1", "--embedding", str(emb)]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "'alphas'" in err

    @pytest.mark.parametrize("edit", [*BLOCK_EDITS, *ZLIB_EDITS])
    def test_malformed_float_block_exits_1(self, tmp_path, capsys, edit):
        check_malformed_alphas_exit_1(tmp_path, capsys, edit, "zlib")

    @pytest.mark.parametrize("edit", BLOCK_EDITS)
    def test_malformed_raw_block_exits_1(self, tmp_path, capsys, edit):
        check_malformed_alphas_exit_1(tmp_path, capsys, edit, None)

    @pytest.mark.parametrize("edit", [*BLOCK_EDITS, *ZLIB_EDITS, *PALETTE_EDITS])
    def test_malformed_palette_block_exits_1(self, tmp_path, capsys, edit):
        check_malformed_alphas_exit_1(tmp_path, capsys, edit, "zlib-palette")

    # Each edit of a valid {-1, 0, 1} palette block, as sign_matrix_payload
    # wrote it at format 1.4: the values it decodes to, or the block itself,
    # are what is wrong.
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda block: block["palette"].__setitem__(0, 0.5), id="half-entry"),
        pytest.param(lambda block: block["palette"].__setitem__(0, 2), id="two-entry"),
        pytest.param(lambda block: block["palette"].__setitem__(0, float("nan")), id="nan-entry"),
        pytest.param(lambda block: block.update(shape=[1, 4]), id="shape-not-rows-cols"),
        pytest.param(lambda block: block.update(shape=[4]), id="one-d-shape"),
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes(4))[:-6])),
                     id="truncated-zlib"),
    ])
    def test_malformed_sign_matrix_block_exits_1(self, tmp_path, capsys, edit):
        block = io._float_block(np.array([[1, 0], [-1, 1]]))
        assert block["codec"] == "zlib-palette" and block["palette"] == [0.0, 1.0, -1.0]
        edit(block)
        check_malformed_entries_exit_1(tmp_path, capsys, block)

    # Each edit of a valid int8 block of {-1, 0, 1}, as sign_matrix_payload writes it.
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes([1, 0, 2, 1])))),
                     id="two-entry"),
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes([1, 0, 128, 1])))),
                     id="minus-128-entry"),
        pytest.param(lambda block: block.update(dtype="<i2"), id="wrong-dtype"),
        pytest.param(lambda block: block.update(codec="zlib-palette", palette=[1.0]),
                     id="palette-codec"),
        pytest.param(lambda block: block.update(shape=[1, 4]), id="shape-not-rows-cols"),
        pytest.param(lambda block: block.update(shape=[4]), id="one-d-shape"),
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes(4))[:-6])),
                     id="truncated-zlib"),
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes(5)))),
                     id="over-long-zlib"),
    ])
    def test_malformed_int8_sign_matrix_block_exits_1(self, tmp_path, capsys, edit):
        block = io.sign_matrix_payload(SignMatrix([[1, 0], [-1, 1]]))["entries"]
        assert (block["dtype"], block["codec"]) == ("|i1", "zlib")
        edit(block)
        check_malformed_entries_exit_1(tmp_path, capsys, block)

    # Each edit of a valid bit block, the identity's four entries of {0, 1}
    # packed high bit first into 0b1001_0000 (four pad bits), with a piece of
    # the one-line error it must give.
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes([0b1001_0001])))),
                     "field 'entries' has a pad bit set", id="pad-bit-set"),
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(b""))),
                     "field 'entries' holds 0 bytes, shape [2, 2] needs 1", id="one-byte-short"),
        pytest.param(lambda block: block.update(b64=b64(zlib.compress(bytes([0b1001_0000, 0])))),
                     "field 'entries' inflates to more than 1 bytes", id="one-byte-long"),
        pytest.param(lambda block: block.update(dtype="<f8"),
                     "field 'entries' has codec 'zlib-bits', expected one of", id="float-dtype"),
        pytest.param(lambda block: block.update(palette=[1.0]),
                     "field 'entries' has a palette but codec 'zlib-bits'", id="palette"),
    ])
    def test_malformed_bit_block_exits_1(self, tmp_path, capsys, edit, message):
        block = io.sign_matrix_payload(SignMatrix([[1, 0], [0, 1]]))["entries"]
        assert (block["dtype"], block["codec"]) == ("|i1", "zlib-bits")
        assert zlib.decompress(base64.b64decode(block["b64"])) == bytes([0b1001_0000])
        edit(block)
        check_malformed_entries_exit_1(tmp_path, capsys, block, message)

    # Edits of EQ-1's compiled system (|R| = 2, two inputs a side, dim 2,
    # L = sqrt 2), each with a piece of the one-line error it must give.
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda v: v["a"].update(dtype="<i2"),
                     "field 'a' has dtype '<i2', expected '<f8' or '|i1'", id="wrong-dtype"),
        pytest.param(lambda v: v.update(b=io.integer_block(np.ones((1, 2, 2), np.int8))),
                     "a and b must be (|R|, count, dim) arrays sharing |R| and dim",
                     id="num-r-mismatch"),
        pytest.param(lambda v: v.update(b=io.integer_block(np.ones((2, 2, 3), np.int8))),
                     "a and b must be (|R|, count, dim) arrays sharing |R| and dim",
                     id="dim-mismatch"),
        pytest.param(lambda v: v.update(b=io.integer_block(np.full((2, 2, 2), 2, np.int8))),
                     "b[0, 0] norm 2.8284271247461903 exceeds the bound 1.4142135623730951",
                     id="slice-above-the-bound"),
        pytest.param(lambda v: v["a"].update(
            b64=b64(zlib.compress(b"")[:2] + b"not a deflate stream")),
                     "field 'a' has a corrupt zlib stream", id="corrupt-zlib"),
        # b's 8 entries of {0, 1} are a bit block of 1 byte: 2 bytes are too many
        pytest.param(lambda v: v["b"].update(b64=b64(zlib.compress(bytes(2)))),
                     "field 'b' inflates to more than 1 bytes", id="over-long-zlib"),
        pytest.param(lambda v: v.pop("norm_bound"), "payload is missing field 'norm_bound'",
                     id="no-norm-bound"),
    ])
    def test_malformed_system_block_exits_1(self, tmp_path, capsys, edit, message):
        emb = tmp_path / "emb.json"
        assert main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)]) == 0
        doc = read_doc(emb)
        edit(doc["payload"]["system"])
        with open(emb, "w") as fh:
            json.dump(doc, fh)
        for command in ("verify", "simulate"):
            code = main([command, "--builtin", "eq", "--n", "1", "--embedding", str(emb)])
            err = capsys.readouterr().err
            assert code == 1 and err.startswith("qfpsim: input error: ") and message in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_usage_and_exit_codes_of_the_parser(self, capsys):
        # main builds only the subparser argv[0] names; help, a missing
        # command and an unknown one print what the whole parser prints
        def run(parse, argv):
            try:
                code = parse(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        whole = cli.build_parser()
        for argv, code in ((["--help"], 0), ([], 1), (["bogus"], 1), (["-h", "verify"], 0),
                           (["compile", "--help"], 0), (["verify", "--n", "2"], 1),
                           (["compile", "--no-assemble"], 1)):
            got = run(main, argv)
            assert got == run(whole.parse_args, argv) and got[0] == code, argv
            if not argv or argv[0] in ("--help", "bogus", "-h"):
                assert "usage: qfpsim [-h] {margin,simulate,compile,project,verify} ..." in (
                    got[1] + got[2])
        assert run(main, ["compile", "--help"])[1].count("--no-assemble") == 0
        assert list(cli.build_parser("verify")._subparsers._group_actions[0].choices) == ["verify"]

    @pytest.mark.parametrize("field, value", [
        ("n", "abc"),
        ("alice_messages", [[0, 1], [1]]),
        ("rand_strings", 5),
        ("c", None),
        # non-integral entries that an int64 cast would truncate to EQ-1's tables
        ("alice_messages", [[0.7, 0], [0, 1]]),
        ("bob_messages", [[0, 0.5], [0, 1]]),
        ("rand_strings", [0.5, 1.5]),
        ("accept", [[1.0, 0], [0, 1]]),
    ])
    def test_malformed_protocol_field_exits_1(self, tmp_path, capsys, field, value):
        payload = io.protocol_payload(eq_parity_protocol(1))
        payload[field] = value
        path = write_doc(tmp_path / "p.json", "protocol", payload)
        assert main(["compile", "--protocol", path, "--builtin", "eq", "--n", "1"]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and f"'{field}'" in err and "Traceback" not in err

    # One leaf rule for every numeric field: an integer field takes JSON
    # integers only, a number field JSON integers or floats, and true, false,
    # strings and null pass neither.  Each document is valid but for its edit,
    # and each edit but the 10**400 ones would be valid if its strings and
    # booleans were read as numbers: only the JSON types are wrong.
    @pytest.mark.parametrize("kind, field, value", [
        ("sign_matrix", "entries", [[True, False]]),
        ("sign_matrix", "entries", [[1.0, -1.0]]),
        ("sign_matrix", "entries", [["1", "-1"]]),
        ("sign_matrix", "rows", True),
        ("sign_matrix", "cols", 2.0),
        ("embedding", "delta0", "0.0"),
        ("embedding", "delta1", True),
        ("embedding", "delta1", 10**400),
        ("embedding", "alphas", [["1.0", 0.0], [0.0, 1.0]]),
        ("embedding", "alphas", [[10**400, 0], [0, 1]]),
        ("embedding", "betas", [[True, False], [False, True]]),
        ("protocol", "alice_messages", [[0, True], [True, 0]]),
    ], ids=["entries-bool", "entries-float", "entries-string", "rows-bool", "cols-float",
            "delta0-string", "delta1-bool", "delta1-huge-int", "alphas-string",
            "alphas-huge-int", "betas-bool", "alice-messages-bool"])
    def test_non_json_number_exits_1(self, tmp_path, capsys, kind, field, value):
        if kind == "sign_matrix":
            payload = io.sign_matrix_payload(SignMatrix([[1, -1]]))
            argv = ["margin", "--matrix"]
        elif kind == "embedding":
            payload = io.embedding_payload(eq_orthonormal_embedding(2))
            argv = ["verify", "--builtin", "eq", "--n", "1", "--embedding"]
        else:
            payload = io.protocol_payload(eq_parity_protocol(1))
            argv = ["compile", "--builtin", "eq", "--n", "1", "--protocol"]
        payload[field] = value
        path = write_doc(tmp_path / "doc.json", kind, payload)
        assert main([*argv, path]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and f"'{field}'" in err and "Traceback" not in err


class TestCliPipelines:
    def test_compile_then_verify_then_simulate(self, tmp_path):
        emb = tmp_path / "emb.json"
        assert main(["compile", "--builtin", "eq", "--n", "2", "--out", str(emb)]) == 0
        doc = read_doc(emb)
        assert doc["kind"] == "embedding"
        assert doc["payload"]["delta0"] == pytest.approx(1 / 16, abs=1e-12)
        assert "stages" not in doc["payload"]

        rep = tmp_path / "verify.json"
        assert main(["verify", "--builtin", "eq", "--n", "2",
                     "--embedding", str(emb), "--out", str(rep)]) == 0
        assert read_doc(rep)["payload"]["valid"] is True

        sim = tmp_path / "sim.json"
        assert main(["simulate", "--builtin", "eq", "--n", "2", "--trials", "20",
                     "--seed", "1", "--out", str(sim)]) == 0
        payload = read_doc(sim)["payload"]
        assert payload["max_error"] == payload["exact_error"]
        # the exact worst-pair error of EQ's states at the Hoeffding count, 408
        assert payload["copies"] == 408
        assert payload["exact_error"] == pytest.approx(0.0312, abs=1e-4)
        assert payload["total_qubits"] == 2 * payload["qubits_per_copy"] * payload["copies"]

    @pytest.mark.parametrize("case", ["eq-3", "ham-5-2", "promise"])
    def test_simulate_writes_the_exact_law(self, tmp_path, case):
        # pair_group is an int8 block of run_protocol's table, -1 exactly on the
        # promise pairs, and each pair's error, group_error[pair_group[x, y]],
        # is exact_pair_errors' to the bit
        if case == "eq-3":
            m = eq_matrix(3)
            e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(3)), m)
            argv = ["--builtin", "eq", "--n", "3"]
        else:
            if case == "ham-5-2":
                e, m = ham_parity_embedding(5, 2).embedding, ham_matrix(5, 2)
                argv = ["--builtin", "ham", "--n", "5", "--d", "2"]
            else:
                # EQ-3's states on EQ-3 with a seeded third of its pairs left out
                e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(3)),
                                                      eq_matrix(3))
                entries = eq_matrix(3).entries.copy()
                entries[np.random.default_rng(4).random(entries.shape) < 1 / 3] = 0
                m = SignMatrix(entries)
                argv = ["--matrix", write_doc(tmp_path / "m.json", "sign_matrix",
                                              io.sign_matrix_payload(m))]
            emb = write_doc(tmp_path / "e.json", "embedding", io.embedding_payload(e))
            e = io.parse_embedding(io.load(emb))
            argv += ["--embedding", emb]
        out = tmp_path / "sim.json"
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        protocol = protocol_from_embedding(e, 1 / 3)
        exact = exact_pair_errors(protocol, m)
        promise = m.entries == 0
        assert (case == "promise") == promise.any()
        assert payload["pair_group"]["dtype"] == "|i1"
        pair_group = io._array(payload, "pair_group", leaves="integer")
        assert pair_group.dtype == np.int8
        assert np.array_equal(pair_group, run_protocol(protocol, m, 1).pair_group)
        assert np.array_equal(pair_group == -1, promise)
        written = np.array(payload["group_error"])[pair_group[~promise]]
        assert np.array_equal(written.view("<u8"), exact[~promise].view("<u8"))
        assert payload["max_error"] == payload["exact_error"] == np.nanmax(exact)
        assert payload["exact_error"] == max(payload["group_error"])
        # the Hoeffding count and the worst pair's exact error, within eps
        figures = {"eq-3": (408, 0.0312), "ham-5-2": (2603, 0.0228)}
        if case in figures:
            copies, error = figures[case]
            assert payload["copies"] == copies
            assert payload["exact_error"] == pytest.approx(error, abs=1e-4)
            assert payload["exact_error"] <= payload["eps"]

    def test_simulate_writes_more_than_127_groups_as_floats(self, tmp_path):
        # a margin witness on a random 16 x 16 sign matrix has 256 groups, past
        # int8: pair_group is a float block that still decodes to the exact table
        m = SignMatrix(np.where(np.random.default_rng(0).random((16, 16)) < 0.5, -1, 1))
        e = realization_to_embedding(maximize_margin_heuristic(m))
        report = run_protocol(protocol_from_embedding(e, 1 / 3), m, 1)
        assert report.group_error.size > 127
        out = tmp_path / "sim.json"
        assert main(["simulate", "--out", str(out),
                     "--matrix", write_doc(tmp_path / "m.json", "sign_matrix",
                                           io.sign_matrix_payload(m)),
                     "--embedding", write_doc(tmp_path / "e.json", "embedding",
                                              io.embedding_payload(e))]) == 0
        doc = read_doc(out)
        assert doc["payload"]["pair_group"]["dtype"] == "<f8"
        assert np.array_equal(io._array(doc["payload"], "pair_group"), report.pair_group)

    def test_simulate_eq_9_writes_at_most_8_kb(self, tmp_path):
        # one bit a pair (EQ's two groups), deflated: 1.3 kB, where one int8
        # entry a pair took 2.9 kB and the nested lists 788 kB
        out = tmp_path / "sim.json"
        assert main(["simulate", "--builtin", "eq", "--n", "9", "--out", str(out)]) == 0
        assert out.stat().st_size <= 8000

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e200])
    def test_verify_renormalizes_rows_at_extreme_scales(self, tmp_path, scale):
        # verify renormalizes no row: rows whose squared entries fall into
        # subnormals, to zero, or overflow are refused like any non-unit row,
        # by verify and simulate alike, without a warning
        emb = tmp_path / "emb.json"
        write_states(emb, 2)
        doc = read_doc(emb)
        block = doc["payload"]["alphas"]
        put_array(block, block_array(block) * scale)
        with open(emb, "w") as fh:
            json.dump(doc, fh)
        for command in ("verify", "simulate"):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "qfpsim.cli", command, "--builtin", "eq",
                 "--n", "2", "--embedding", str(emb)],
                env=child_env(), capture_output=True, text=True)
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr.startswith("qfpsim: input error: invalid embedding: "
                                          "alphas[0] is not a unit vector (norm ")
            assert proc.stderr.count("\n") == 1

    def test_corrupted_embedding_names_offending_pair(self, tmp_path):
        emb = tmp_path / "emb.json"
        write_states(emb, 1)
        doc = read_doc(emb)
        as_lists(doc["payload"], "alphas", "betas")
        # Point one Alice state at the wrong Bob state: it is still a unit
        # vector, so it loads, and the verifier must then blame a concrete pair.
        doc["payload"]["alphas"][0] = doc["payload"]["betas"][1]
        with open(emb, "w") as fh:
            json.dump(doc, fh)
        rep = tmp_path / "verify.json"
        assert main(["verify", "--builtin", "eq", "--n", "1",
                     "--embedding", str(emb), "--out", str(rep)]) == 0
        payload = read_doc(rep)["payload"]
        assert payload["valid"] is False
        assert payload["worst_zero_pair"] == [0, 1] or payload["worst_one_pair"] == [0, 0]

    def test_project_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((10, 400))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        vec = write_doc(tmp_path / "v.json", "vectors", io.vectors_payload(v))
        out = tmp_path / "p.json"
        assert main(["project", "--vectors", vec, "--dim", "64", "--seed", "3",
                     "--eps", "0.5", "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        expected = project_vectors(v, 64, 3)
        np.testing.assert_array_equal(np.array(payload["projected"]), expected)
        report = verify_distortion(v, expected, 0.5)
        assert (payload["ok"], payload["max_distortion"]) == (report.ok, report.max_distortion)
        assert (payload["source_dim"], payload["target_dim"]) == (400, 64)

    def test_compiled_states_are_compressed(self, tmp_path):
        # the states are written as their int8 system of {0, 1}, one bit a
        # slice entry: EQ-7 took 11 kB as palette-coded states and 7.7 kB at
        # one byte an entry, EQ-9 147 kB and 88 kB
        for n, size in ((7, 2_500), (9, 20_000)):
            out = tmp_path / "e.json"
            assert main(["compile", "--builtin", "eq", "--n", str(n), "--out", str(out)]) == 0
            doc = read_doc(out)
            assert "alphas" not in doc["payload"]
            for name in ("a", "b"):
                block = doc["payload"]["system"][name]
                assert (block["dtype"], block["codec"]) == ("|i1", "zlib-bits")
                assert block["shape"] == [1 << n, 1 << n, 2]
            assert out.stat().st_size < size

    def test_format_1_4_compiled_document_verifies(self, tmp_path, capsys):
        # EQ-3 as a 1.4 compile wrote it: palette-coded float64 states, read
        # as float64 arrays, give the report they gave then
        doc = read_doc(EQ3_FORMAT_1_4)
        assert (doc["format_version"], doc["payload"]["alphas"]["codec"]) == ("1.4", "zlib-palette")
        assert type(io.parse_embedding(doc)) is ThresholdEmbedding
        assert main(["verify", "--builtin", "eq", "--n", "3", "--embedding", EQ3_FORMAT_1_4]) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == {
            "report": "verify_embedding", "valid": True,
            "worst_zero_side": 0.062499999999999944, "worst_one_side": 0.24999999999999978,
            "worst_zero_pair": [0, 1], "worst_one_pair": [0, 0],
            "delta0": 0.06249999999999997, "delta1": 0.2499999999999999}
        assert main(["simulate", "--builtin", "eq", "--n", "3", "--embedding", EQ3_FORMAT_1_4]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["copies"] == 408

    def test_format_1_5_compiled_document_reports_as_its_bit_document(self, tmp_path, capsys):
        # EQ-3 as a 1.5 compile wrote it, int8 sides of one byte an entry,
        # gives verify and simulate the reports today's bit-block document gives
        doc = read_doc(EQ3_COMPILED_1_5)
        assert doc["format_version"] == "1.5"
        current = tmp_path / "eq3.json"
        assert main(["compile", "--builtin", "eq", "--n", "3", "--out", str(current)]) == 0
        new = read_doc(current)
        assert new["format_version"] == io.FORMAT_VERSION == "1.6"
        for side in "ab":
            assert doc["payload"]["system"][side]["codec"] == "zlib"
            assert new["payload"]["system"][side]["codec"] == "zlib-bits"
        old_system, new_system = (io.parse_embedding(d).system for d in (doc, new))
        for side in "ab":
            got, want = getattr(old_system, side), getattr(new_system, side)
            assert got.dtype == want.dtype == np.int8 and got.tobytes() == want.tobytes()
        for command in ("verify", "simulate"):
            reports = []
            for path in (EQ3_COMPILED_1_5, str(current)):
                argv = [command, "--builtin", "eq", "--n", "3", "--embedding", path]
                assert main(argv) == 0
                reports.append(json.loads(capsys.readouterr().out)["payload"])
            assert reports[0] == reports[1]
        assert reports[0]["copies"] == 408  # simulate's, as the 1.4 document gives

    @pytest.mark.parametrize("name", ["eq3", "promise-12x10"])
    def test_format_1_4_sign_matrix_reports_as_its_int8_document(self, tmp_path, capsys, name):
        # a sign matrix as sign_matrix_payload wrote it at format 1.4, a float64
        # palette block, gives margin and verify the reports its int8 document gives
        legacy = str(DATA / f"{name}-sign-matrix-1.4.json")
        doc = read_doc(legacy)
        assert (doc["format_version"], doc["payload"]["entries"]["codec"]) == ("1.4", "zlib-palette")
        m = io.parse_sign_matrix(doc)
        assert m.entries.dtype == np.int8 and (m.entries == 0).any() == (name != "eq3")
        current = write_doc(tmp_path / "m.json", "sign_matrix", io.sign_matrix_payload(m))
        assert read_doc(current)["payload"]["entries"]["dtype"] == "|i1"
        realization = write_doc(tmp_path / "r.json", "realization",
                                io.realization_payload(maximize_margin_heuristic(m)))
        runs = [["margin", "--heuristic"], ["margin"], ["verify", "--realization", realization]]
        if name == "eq3":
            runs.append(["verify", "--embedding", EQ3_FORMAT_1_4])
        for argv in runs:
            reports = []
            for path in (legacy, current):
                assert main([*argv, "--matrix", path]) == 0
                reports.append(json.loads(capsys.readouterr().out)["payload"])
            assert reports[0] == reports[1], argv
        assert reports[0]["valid"] is True

    def test_compile_one_way_model_matches_smp(self, tmp_path):
        # both models, and EQ-3's protocol read from a document, compile to one payload
        protocol = write_doc(tmp_path / "p.json", "protocol",
                             io.protocol_payload(eq_parity_protocol(3)))
        payloads = []
        for source in (["--model", "smp"], ["--model", "one-way"], ["--protocol", protocol]):
            out = tmp_path / "e.json"
            assert main(["compile", "--builtin", "eq", "--n", "3", *source,
                         "--out", str(out)]) == 0
            payloads.append(read_doc(out)["payload"])
        assert payloads[0] == payloads[1] == payloads[2]

    def test_compile_protocol_against_a_matrix(self, tmp_path):
        # a seeded c = 3 one-way protocol and the sign matrix its acceptance
        # separates: Bob's indicator sets take several sizes, so the betas'
        # slack takes several values, and the compiled states verify
        p = random_one_way(3, 0)
        protocol = write_doc(tmp_path / "p.json", "protocol", io.protocol_payload(p))
        matrix = write_doc(tmp_path / "m.json", "sign_matrix",
                           io.sign_matrix_payload(separated_by(compile_one_way(p))))
        emb, rep = tmp_path / "e.json", tmp_path / "r.json"
        assert main(["compile", "--protocol", protocol, "--matrix", matrix,
                     "--out", str(emb)]) == 0
        assert main(["verify", "--matrix", matrix, "--embedding", str(emb),
                     "--out", str(rep)]) == 0
        b = io.parse_embedding(read_doc(emb)).system.b
        assert len(np.unique(np.einsum("rxd,rxd->rx", b, b))) >= 4
        assert read_doc(rep)["payload"]["valid"] is True
        # sign_matrix_payload writes the entries as an int8 block
        entries = read_doc(matrix)["payload"]["entries"]
        assert (entries["dtype"], entries["codec"], entries["shape"]) == ("|i1", "zlib", [12, 10])

    def test_compile_num_r_is_seeded(self, tmp_path):
        def run(seed, name):
            out = tmp_path / name
            assert main(["compile", "--builtin", "eq", "--n", "4", "--num-r", "5",
                         "--seed", seed, "--out", str(out)]) == 0
            return read_doc(out)["payload"]

        first = run("4", "a.json")
        assert first == run("4", "b.json")
        assert first["dimension"] == 4 * 5
        assert first != run("8", "c.json")
        # 64 sampled random strings: 512 states of 256 coordinates that still
        # verify at the document's own thresholds
        emb, rep = tmp_path / "eq9-r64.json", tmp_path / "eq9-r64-verify.json"
        assert main(["compile", "--builtin", "eq", "--n", "9", "--num-r", "64",
                     "--out", str(emb)]) == 0
        assert main(["verify", "--builtin", "eq", "--n", "9", "--embedding", str(emb),
                     "--out", str(rep)]) == 0
        e, v = read_doc(emb)["payload"], read_doc(rep)["payload"]
        assert e["dimension"] == 256 and e["system"]["a"]["shape"] == [64, 512, 2]
        assert v["valid"] is True and (v["delta0"], v["delta1"]) == (e["delta0"], e["delta1"])

    def test_margin_viewed_through_realization_verify(self, tmp_path):
        r = eq_explicit_realization(4)
        path = write_doc(tmp_path / "r.json", "realization", io.realization_payload(r))
        out = tmp_path / "rep.json"
        m = eq_matrix(2)
        mpath = write_doc(tmp_path / "m.json", "sign_matrix", io.sign_matrix_payload(m))
        assert main(["verify", "--matrix", mpath, "--realization", str(path),
                     "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        assert payload["valid"] is True
        assert payload["achieved_margin"] == pytest.approx(1 / 3, abs=1e-12)


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 1 << 20


class TestOneStateBlockAtATime:
    """compile writes the states as the system they pad, verify reads them as
    that system, and float64 states, as a 1.4 compile wrote them, are read
    and checked one block of rows at a time; neither writes a byte that the
    whole-embedding path would not."""

    @pytest.fixture(scope="class")
    def eq9(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("eq9") / "eq9.json"
        assert main(["compile", "--builtin", "eq", "--n", "9", "--out", str(path)]) == 0
        return path

    @pytest.fixture(scope="class")
    def eq9_states(self, tmp_path_factory):
        return write_states(tmp_path_factory.mktemp("eq9") / "eq9-states.json", 9)

    @pytest.mark.parametrize("model", ["smp", "one-way"])
    @pytest.mark.parametrize("n", range(3, 10))
    def test_compile_writes_the_assembled_payload(self, tmp_path, n, model):
        out = tmp_path / "e.json"
        assert main(["compile", "--builtin", "eq", "--n", str(n), "--model", model,
                     "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        protocol = (eq_parity_protocol if model == "smp" else eq_parity_one_way_protocol)(n)
        e = assemble_shared_randomness_states(compile_one_way(protocol), eq_matrix(n))
        assert json.dumps(payload) == json.dumps(io.embedding_payload(e))
        assert list(payload) == ["dimension", "delta0", "delta1", "system"]
        # one form: the reader holds the system, as assembly returns it, and
        # the two pad into the same bits
        parsed = io.parse_embedding(read_doc(out))
        assert isinstance(parsed, embeddings.CompiledEmbedding)
        for side in ("a", "b"):
            assert np.array_equal(getattr(parsed.system, side), getattr(e.system, side))
        for side in ("alphas", "betas"):
            got, want = getattr(parsed, side), getattr(e, side)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("codec", ["zlib-palette", "zlib", None, "lists"])
    def test_verify_reports_what_the_whole_embedding_gives(self, tmp_path, codec):
        # 300 x 600 pairs: three verifier row blocks of 109 rows.  The states
        # take six distinct values, so the writer palette-codes them.
        rng = np.random.default_rng(3)
        states = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0.5, 0.5, 0.5, 0.5],
                           [0.5, -0.5, 0.5, -0.5], [0.6, 0.8, 0, 0], [0, 0, -0.8, 0.6]])
        e = ThresholdEmbedding(states[rng.integers(0, 6, 300)],
                               states[rng.integers(0, 6, 600)], 0.2, 0.7)
        m = SignMatrix(rng.integers(-1, 2, (300, 600)))
        payload = io.embedding_payload(e)
        assert payload["alphas"]["codec"] == "zlib-palette"
        for name in ("alphas", "betas"):
            if codec == "lists":
                as_lists(payload, name)
            else:
                recode(payload[name], codec)
        emb = write_doc(tmp_path / "e.json", "embedding", payload)
        mat = write_doc(tmp_path / "m.json", "sign_matrix", io.sign_matrix_payload(m))
        out = tmp_path / "r.json"
        assert main(["verify", "--matrix", mat, "--embedding", emb, "--out", str(out)]) == 0
        parsed = io.parse_embedding(io.load(emb))
        expected = {"report": "verify_embedding",
                    **verify_threshold_embedding(parsed, m)._asdict(),
                    "delta0": parsed.delta0, "delta1": parsed.delta1}
        assert read_doc(out)["payload"] == json.loads(json.dumps(expected))

    @staticmethod
    def doubled_row_511(tmp_path, capsys, eq9_states, side):
        # EQ-9's verifier reads its 512 alphas in four blocks of 128 rows, and
        # the betas in four tiles of 128; row 511 ends the last of each.
        doc = read_doc(eq9_states)
        rows = block_array(doc["payload"][side]).copy()
        rows[511] *= 2
        doc["payload"][side] = io._float_block(rows)
        path = tmp_path / "eq9x2.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in ("verify", "simulate"):
            code = main([command, "--builtin", "eq", "--n", "9", "--embedding", str(path)])
            err = capsys.readouterr().err
            assert code == 1 and err == ("qfpsim: input error: invalid embedding: "
                                         f"{side}[511] is not a unit vector (norm 2.0)\n")

    def test_doubled_row_in_the_last_block_names_its_index(self, tmp_path, capsys, eq9_states):
        self.doubled_row_511(tmp_path, capsys, eq9_states, "alphas")

    def test_doubled_beta_in_the_last_tile_names_its_index(self, tmp_path, capsys, eq9_states):
        self.doubled_row_511(tmp_path, capsys, eq9_states, "betas")

    def test_alphas_of_later_blocks_are_named_before_betas(self, tmp_path, capsys, eq9_states):
        # the verifier's first block reads every tile of betas, beta row 0
        # among them, before its last block reads alpha row 511: the alpha is
        # still named, as the reader checks every alpha before any beta, from
        # palette and raw zlib blocks alike, for verify and simulate alike
        for codec in ("zlib-palette", "zlib"):
            doc = read_doc(eq9_states)
            for side, row in (("alphas", 511), ("betas", 0)):
                rows = block_array(doc["payload"][side]).copy()
                rows[row] *= 2
                doc["payload"][side] = io._float_block(rows)
                recode(doc["payload"][side], codec)
            path = tmp_path / "eq9x2.json"
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for command in ("verify", "simulate"):
                code = main([command, "--builtin", "eq", "--n", "9", "--embedding", str(path)])
                assert code == 1 and capsys.readouterr().err == (
                    "qfpsim: input error: invalid embedding: "
                    "alphas[511] is not a unit vector (norm 2.0)\n"), (codec, command)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("scaled, named", [
        ({"alphas": 5}, "alphas[5]"),
        ({"betas": 2}, "betas[2]"),
        ({"alphas": 5, "betas": 2}, "alphas[5]"),
        ({"alphas": 7, "betas": 0}, "alphas[7]"),
    ])
    def test_non_unit_rows_are_named_before_anything_else(self, tmp_path, capsys, n, scaled,
                                                          named):
        # EQ-3's states: against EQ-4 the counts are wrong too, but a non-unit
        # row is named first, alphas before betas: exit 1, not 2; from palette
        # and raw zlib blocks alike, for verify and simulate alike
        e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(3)),
                                              eq_matrix(3))
        for codec in ("zlib-palette", "zlib"):
            payload = io.embedding_payload(states_of(e))
            for side, row in scaled.items():
                rows = np.array(getattr(e, side))
                rows[row] *= 2
                payload[side] = io._float_block(rows)
                assert payload[side]["codec"] == "zlib-palette"
                recode(payload[side], codec)
            path = write_doc(tmp_path / "e.json", "embedding", payload)
            for command in ("verify", "simulate"):
                code = main([command, "--builtin", "eq", "--n", str(n), "--embedding", path])
                assert code == 1 and capsys.readouterr().err.startswith(
                    f"qfpsim: input error: invalid embedding: {named} is not a unit vector "
                    "(norm "), (codec, command)

    def test_compile_holds_one_state_block(self, tmp_path):
        # EQ-8: each side's states would be a 256 x 1024 float64 block, 2 MiB,
        # and are never formed: compile writes the int8 system (0.25 MiB a
        # side) as it is.  Its peak, ~1.5 MiB, is the threshold search beside
        # the system: the int8 copy of b by input (0.125 MiB), one block of the
        # 256 x 256 squares (0.5 MiB) and the worst-pair search's masked copy
        # of it (0.5 MiB).  2 MiB covers it.
        argv = ["compile", "--builtin", "eq", "--n", "8", "--out", str(tmp_path / "e.json")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 2.0 * MiB

    def test_pair_group_is_written_uncopied(self):
        # run_protocol holds EQ-9's table of 512 x 512 group indices as int8,
        # 0.25 MiB where int64 took 2 MiB, and integer_block deflates it as it
        # is: writing it traces ~0.29 MiB (zlib's deflate state), and 0.54 MiB
        # from an int64 table, which it writes as the same block
        m = eq_matrix(9)
        e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(9)), m)
        table = run_protocol(protocol_from_embedding(e, 1 / 3), m, 1).pair_group
        assert table.dtype == np.int8 and table.nbytes == MiB // 4
        block, peak = traced_peak(lambda: io.integer_block(table))
        assert peak <= 0.4 * MiB
        assert block == io.integer_block(table.astype(np.int64))

    def test_simulate_holds_the_codes(self, tmp_path):
        # EQ-9's states are held as their int8 system (1 MiB), not as float64
        # states (16 MiB).  The exact law groups the 512 x 512 pairs one
        # verifier block of rows at a time, holding each block's few distinct
        # keys and a one-byte index a pair, then writes the int8 table (0.25
        # MiB).  The peak is ~4.1 MiB; 8 MiB covers it, and any N^2 float64
        # array beside it (2 MiB each) soon exceeds it: grouping by np.unique
        # over every pair's key peaked at ~18 MiB.
        argv = ["simulate", "--builtin", "eq", "--n", "9", "--out", str(tmp_path / "s.json")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 8 * MiB

    def test_run_protocol_groups_one_block_at_a_time(self):
        # the embedding built, run_protocol holds the verifier's blocks of
        # 128 x 512 squares, each block's keys and one-byte indices into its
        # distinct keys (0.25 MiB in all), and the int8 table: ~2.7 MiB, where
        # np.unique's sort and inverse over every pair's key took 16.5 MiB
        m = eq_matrix(9)
        p = protocol_from_embedding(assemble_shared_randomness_states(
            compile_one_way(eq_parity_protocol(9)), m), 1 / 3)
        report, peak = traced_peak(lambda: run_protocol(p, m, 1))
        assert peak <= 6 * MiB
        assert report.pair_group.dtype == np.int8 and report.group_error.size == 2

    def test_walks_over_the_products(self, tmp_path, monkeypatch):
        # a walk squares every pair's product, through a system's _rows or
        # float states' _squares: simulate groups its pairs on the verifier's
        # walk, and assembling EQ's states reads its thresholds from one more
        walks, rows, squares = [], VectorSystem._rows, embeddings._squares

        def counted_rows(self, squared=False):
            walks.append(self)
            return rows(self, squared)

        def counted_squares(e, m):
            if not isinstance(e, CompiledEmbedding):  # a compiled one walks through _rows
                walks.append(e)
            return squares(e, m)

        monkeypatch.setattr(VectorSystem, "_rows", counted_rows)
        monkeypatch.setattr(embeddings, "_squares", counted_squares)
        # set even where unbound, so that a by-name import of _squares would be counted too
        monkeypatch.setattr(fingerprint, "_squares", counted_squares, raising=False)

        def walked(*argv):
            walks.clear()
            assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
            return len(walks)

        eq5 = ["--builtin", "eq", "--n", "5"]
        compiled = tmp_path / "eq5.json"
        assert main(["compile", *eq5, "--out", str(compiled)]) == 0
        ham = write_doc(tmp_path / "ham.json", "embedding",
                        io.embedding_payload(ham_parity_embedding(5, 2).embedding))
        assert walked("compile", *eq5) == 1
        assert walked("verify", *eq5, "--embedding", str(compiled)) == 1
        assert walked("simulate", *eq5, "--embedding", str(compiled)) == 1
        assert walked("simulate", "--builtin", "ham", "--n", "5", "--d", "2",
                      "--embedding", ham) == 1
        assert walked("simulate", *eq5) == 2

    def test_verify_holds_one_state_block(self, eq9, capsys):
        # EQ-9, whose 512 inputs span four verifier row blocks of 128 (at
        # EQ-8 one block of 256 rows is all of them): verify squares the
        # system's exact acceptance products and never forms the states.  It
        # holds the int8 system (1 MiB), its int8 copy of b by input (0.5 MiB),
        # float32 tiles of 64 alphas' and 64 betas' slices (0.25 MiB each), and
        # the worst-pair search over one block's 128 x 512 squares.  The peak
        # is ~3.3 MiB; 4 MiB covers it, and one side's float64 states (8 MiB)
        # exceed it.
        argv = ["verify", "--builtin", "eq", "--n", "9", "--embedding", str(eq9)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 4.0 * MiB
        # every off-diagonal pair ties, as every diagonal one does: the first
        # pair of each side pins the tie rule across the four blocks
        v = json.loads(capsys.readouterr().out)["payload"]
        assert v["valid"] is True
        assert v["worst_zero_side"] == pytest.approx(1 / 16, rel=1e-12)
        assert v["worst_one_side"] == pytest.approx(1 / 4, rel=1e-12)
        assert (v["worst_zero_pair"], v["worst_one_pair"]) == ([0, 1], [0, 0])

    def test_project_holds_the_input_and_blocks(self, tmp_path):
        # 256 EQ-8 states (2 MiB) projected to 256 dimensions (0.5 MiB): the
        # map is drawn, and the pairwise check formed, one block of rows at a
        # time, and the report is written one row at a time; 4.5 MiB covers
        # them and the generator.
        e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(8)),
                                              eq_matrix(8))
        vectors = write_doc(tmp_path / "v.json", "vectors", io.vectors_payload(e.alphas))
        out = tmp_path / "p.json"
        argv = ["project", "--vectors", vectors, "--dim", "256", "--out", str(out)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 4.5 * MiB
        assert np.array_equal(read_doc(out)["payload"]["projected"],
                              project_vectors(e.alphas, 256, 0))


class TestDumpRows:
    """io.dump writes a 2-d ndarray leaf as nested lists, one row at a time:
    the bytes json writes, without separator whitespace, for the leaf's .tolist()."""

    @staticmethod
    def doc():
        rng = np.random.default_rng(2)
        return io.document("report", {
            "report": "projection", "projected": rng.standard_normal((5, 4)),
            "nested": {"ints": np.arange(6).reshape(2, 3), "empty": np.zeros((0, 3)),
                       "flat": np.zeros((2, 0)), "tiny": np.array([[-0.0, 5e-324]])},
            "after": [1.5, "text"]})

    @staticmethod
    def listed(value):
        if isinstance(value, dict):
            return {k: TestDumpRows.listed(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    def test_file_holds_the_lists_text(self, tmp_path):
        doc = self.doc()
        io.dump(doc, str(tmp_path / "d.json"))
        assert (tmp_path / "d.json").read_text() == json.dumps(
            self.listed(doc), separators=(",", ":")) + "\n"

    def test_stdout_holds_the_lists_text(self, capsys):
        doc = self.doc()
        io.dump(doc)
        assert capsys.readouterr().out == json.dumps(
            self.listed(doc), separators=(",", ":")) + "\n"

    def test_non_finite_entry_refused_before_writing(self, tmp_path):
        doc = self.doc()
        doc["payload"]["projected"][4, 3] = np.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            io.dump(doc, str(tmp_path / "d.json"))
        assert not (tmp_path / "d.json").exists()

    def test_other_arrays_are_not_serializable(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            io.dump({"v": np.zeros(3)})


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        # identical argv (including the relative --out path) must reproduce
        # the document byte for byte; run from two directories to compare
        runs = {
            "out.json": ["simulate", "--builtin", "eq", "--n", "2", "--trials", "10",
                         "--seed", "7", "--out", "out.json"],
            "states.json": ["compile", "--builtin", "eq", "--n", "2", "--out", "states.json"],
        }
        env = child_env()
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            for args in runs.values():
                proc = subprocess.run([sys.executable, "-m", "qfpsim.cli", *args], cwd=d,
                                      env=env, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
            dirs.append(d)
        for out in runs:
            assert (dirs[0] / out).read_bytes() == (dirs[1] / out).read_bytes()
        # the compared compile output really holds a binary array
        doc = json.loads((dirs[0] / "states.json").read_bytes())
        assert "b64" in doc["payload"]["system"]["a"]

    def test_simulate_reads_no_seed(self, tmp_path):
        payloads = []
        for seed in ("0", "5"):
            out = tmp_path / f"s{seed}.json"
            assert main(["simulate", "--builtin", "eq", "--n", "3", "--seed", seed,
                         "--out", str(out)]) == 0
            payloads.append(read_doc(out)["payload"])
        assert payloads[0] == payloads[1]

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["margin", "--builtin", "eq", "--n", "1", "--heuristic",
              "--seed", "1", "--out", str(a)])
        main(["margin", "--builtin", "eq", "--n", "1", "--heuristic",
              "--seed", "2", "--out", str(b)])
        pa, pb = read_doc(a)["payload"], read_doc(b)["payload"]
        assert pa["upper"] == pb["upper"]  # spectral bounds are seed-free


def test_cli_module_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qfpsim.cli", "margin", "--builtin", "ip", "--k", "1"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["format_version"] == io.FORMAT_VERSION
    assert doc["provenance"]["version"] == io.VERSION


def commands_of_each_kind(tmp_path):
    """One argv of each command, in an order that runs in ``tmp_path``, where
    the vectors document ``project`` reads is written."""
    vectors = np.random.default_rng(0).standard_normal((10, 200))
    write_doc(tmp_path / "vecs.json", "vectors",
              io.vectors_payload(vectors / np.linalg.norm(vectors, axis=1, keepdims=True)))
    return [
        ["compile", "--builtin", "eq", "--n", "3", "--out", "eq3.json"],
        ["verify", "--builtin", "eq", "--n", "3", "--embedding", "eq3.json", "--out", "v.json"],
        ["project", "--vectors", "vecs.json", "--dim", "16", "--out", "p.json"],
        ["margin", "--builtin", "ham", "--n", "4", "--d", "1", "--heuristic", "--out", "m.json"],
        ["simulate", "--builtin", "eq", "--n", "2", "--trials", "5", "--out", "s.json"],
    ]


@pytest.mark.parametrize("command", ["compile", "verify", "project", "margin", "simulate"])
def test_every_command_stamps_the_format_version(tmp_path, monkeypatch, command):
    """Each command's document carries the one format version, whatever blocks
    it holds (int8, float or none)."""
    monkeypatch.chdir(tmp_path)
    for argv in commands_of_each_kind(tmp_path):  # those before ``command`` make its inputs
        assert main(argv) == 0
        if argv[0] == command:
            break
    assert read_doc(argv[-1])["format_version"] == io.FORMAT_VERSION


def test_every_command_writes_a_compact_document(tmp_path, monkeypatch):
    """No command's document holds whitespace between items or after keys."""
    monkeypatch.chdir(tmp_path)
    for argv in commands_of_each_kind(tmp_path):
        assert main(argv) == 0
        text = Path(argv[-1]).read_text()
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n", argv[0]


class TestExitPath:
    """``python -m qfpsim.cli`` runs ``cli.entry``, which flushes stdout and
    stderr and then ends the process by ``os._exit``, skipping teardown."""

    def test_stdout_document_arrives_whole(self, tmp_path):
        # ~59 kB of stdout, several buffers: without the flush its tail never arrives
        argv = ["compile", "--builtin", "eq", "--n", "10"]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        want = read_doc(tmp_path / "out.json")["payload"]
        cmd = [sys.executable, "-m", "qfpsim.cli", *argv]
        piped = subprocess.run(cmd, env=child_env(), capture_output=True, check=True).stdout
        with open(tmp_path / "stdout.json", "wb") as fh:
            subprocess.run(cmd, env=child_env(), stdout=fh, check=True)
        for text in (piped, (tmp_path / "stdout.json").read_bytes()):
            assert len(text) > 32 * 1024 and text.endswith(b"\n") and text.count(b"\n") == 1
            assert json.loads(text)["payload"] == want

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(["margin", "--matrix", "missing.json"], 1,
                     "qfpsim: input error: cannot read document 'missing.json': [Errno 2] "
                     "No such file or directory: 'missing.json'\n", id="unreadable-matrix"),
        pytest.param(["simulate", "--builtin", "eq", "--n", "3", "--trials", "0"], 2,
                     "qfpsim: trials must be >= 1\n", id="no-trials"),
    ])
    def test_failure_writes_its_one_stderr_line(self, tmp_path, argv, code, line):
        proc = subprocess.run([sys.executable, "-m", "qfpsim.cli", *argv], cwd=tmp_path,
                              env=child_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line)

    @staticmethod
    def assert_one_write_error(code: int, err: str) -> None:
        assert (code, err.count("\n")) == (1, 1) and "Traceback" not in err, err
        assert err.startswith("qfpsim: cannot write output: "), err

    # on stdout, margin's document fits one buffer and fails at entry's flush;
    # EQ-9's (~19 kB) fails in io.dump, and entry's flush then fails unreported
    MARGIN = ["margin", "--builtin", "ip", "--k", "1"]
    EQ9 = ["compile", "--builtin", "eq", "--n", "9"]
    # ~89 kB, more than a pipe holds (64 KiB on Linux), in ~0.3 s: 4096
    # sampled random strings compress less than EQ-9's 512 enumerated ones
    PIPE_FILLER = ["compile", "--builtin", "eq", "--n", "8", "--num-r", "4096"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [MARGIN, EQ9], ids=["margin", "compile-eq9"])
    @pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
    def test_a_full_device_is_one_stderr_line(self, tmp_path, argv, to_out):
        cmd = [sys.executable, "-m", "qfpsim.cli", *argv, *(["--out", "/dev/full"] * to_out)]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(cmd, cwd=tmp_path, env=child_env(), text=True,
                                  stdout=subprocess.DEVNULL if to_out else full,
                                  stderr=subprocess.PIPE)
        self.assert_one_write_error(proc.returncode, proc.stderr)
        assert "[Errno 28]" in proc.stderr

    def test_a_missing_directory_is_one_stderr_line(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        proc = subprocess.run([sys.executable, "-m", "qfpsim.cli", *self.MARGIN,
                               "--out", str(out)], cwd=tmp_path, env=child_env(),
                              capture_output=True, text=True)
        self.assert_one_write_error(proc.returncode, proc.stderr)
        assert "[Errno 2]" in proc.stderr and not out.parent.exists()

    def test_a_reader_that_stops_after_10_bytes_is_one_stderr_line(self, tmp_path):
        # as `qfpsim compile ... | head -c 10`: the document outgrows the
        # pipe's buffer, so the write after the close fails
        proc = subprocess.Popen([sys.executable, "-m", "qfpsim.cli", *self.PIPE_FILLER],
                                cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'{"format_v'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        self.assert_one_write_error(proc.wait(), err)
        assert "[Errno 32]" in err

    def test_nothing_registers_an_atexit_handler(self, tmp_path):
        # os._exit skips atexit handlers: none may exist, from numpy, any
        # qfpsim module, or a command of any kind.  main returns after each
        # command; only entry ends the process
        commands = commands_of_each_kind(tmp_path)
        script = textwrap.dedent("""
            import atexit, importlib, json, pkgutil, sys
            registered = []
            atexit.register = lambda fn, *args, **kwargs: registered.append(repr(fn))
            import numpy, numpy.random
            import qfpsim
            for module in pkgutil.iter_modules(qfpsim.__path__):
                importlib.import_module("qfpsim." + module.name)
            from qfpsim.cli import main
            for argv in json.loads(sys.argv[1]):
                if main(argv) != 0:
                    sys.exit(f"{argv[0]} failed")
            print(json.dumps(registered))
        """)
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_cli_never_imports_numpy_ma(tmp_path):
    """np.unique and its kin import numpy.ma on their first call, 6-7 ms of a
    CLI process; no command may pull it in."""
    commands = commands_of_each_kind(tmp_path)
    script = textwrap.dedent("""
        import json, sys
        from qfpsim.cli import main
        for argv in json.loads(sys.argv[1]):
            if main(argv) != 0:
                sys.exit(f"{argv[0]} failed")
            if "numpy.ma" in sys.modules:
                sys.exit(f"{argv[0]} imported numpy.ma")
    """)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def readme_decode_recipe():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("To decode a block with numpy:\n\n```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("codec", ["zlib-palette", "zlib", "int8", "zlib-bits", "system",
                                   "pair_group"])
def test_readme_decode_recipe(tmp_path, codec):
    """README's numpy-only recipe decodes every form of block as the reader does."""
    if codec == "zlib-palette":
        doc = read_doc(write_states(tmp_path / "eq3.json", 3))
    elif codec == "zlib":
        alphas = np.random.default_rng(0).standard_normal((5, 300))
        doc = {"payload": {"alphas": io.vectors_payload(alphas)["vectors"]}}
    elif codec in ("int8", "zlib-bits"):  # EQ-3's entries, and 15 bits with 1 pad bit
        arr = eq_matrix(3).entries if codec == "int8" else np.tri(3, 5, dtype=np.int8)
        doc = {"payload": {"alphas": io.integer_block(arr)}}
    else:  # a compiled system side or a report's pair_group, under the recipe's field name
        out = tmp_path / "out.json"
        command, field = ("compile", "system") if codec == "system" else ("simulate", "pair_group")
        assert main([command, "--builtin", "eq", "--n", "3", "--out", str(out)]) == 0
        block = read_doc(out)["payload"][field]
        doc = {"payload": {"alphas": block["a"] if codec == "system" else block}}
        codec = "zlib-bits"
    if codec in ("int8", "zlib-bits"):
        assert doc["payload"]["alphas"]["dtype"] == "|i1"
    assert doc["payload"]["alphas"]["codec"] == ("zlib" if codec == "int8" else codec)
    scope = {"doc": doc}
    exec(readme_decode_recipe(), scope)
    expected = io._array(doc["payload"], "alphas")
    assert scope["alphas"].dtype == expected.dtype
    assert scope["alphas"].tobytes() == expected.tobytes()


def run_qfpsim_lines(text, capsys):
    """Run every line of ``text`` that starts with ``qfpsim``, in order,
    through ``main`` in the current directory; each must exit 0.  Returns
    how many ran."""
    commands = [shlex.split(line)[1:] for line in map(str.strip, text.splitlines())
                if line.startswith("qfpsim ")]
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)
        capsys.readouterr()
    return len(commands)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``qfpsim`` line of README's CLI block runs in order and exits 0;
    the block projects ``vecs.json``, which it does not make, so it is made
    here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    vectors = np.random.default_rng(0).standard_normal((10, 400))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    write_doc("vecs.json", "vectors", io.vectors_payload(vectors))
    assert run_qfpsim_lines(block, capsys) >= 5


def test_workflow_cli_lines_run(tmp_path, monkeypatch, capsys):
    """Every ``qfpsim`` line of the CI workflow, which runs them through the
    installed console script, runs in order through ``main`` and exits 0."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    monkeypatch.chdir(tmp_path)
    assert run_qfpsim_lines(workflow.read_text(), capsys) >= 3
