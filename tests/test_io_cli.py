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
from hypothesis.extra.numpy import arrays

import qfpsim
from qfpsim import embeddings, io
from qfpsim.cli import main
from qfpsim.compiler import (
    VectorSystem,
    assemble_shared_randomness_states,
    compile_one_way,
    compile_smp,
)
from qfpsim.embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    verify_threshold_embedding,
)
from qfpsim.problems import eq_matrix, eq_parity_one_way_protocol, eq_parity_protocol
from qfpsim.projections import project_vectors, verify_distortion
from tests.test_embeddings import eq_explicit_realization, eq_orthonormal_embedding


def write_doc(path, kind, payload):
    io.dump(io.document(kind, payload), str(path))
    return str(path)


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)


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
    field the array sent and how to read it back from the parsed object."""
    rows, other, cols = (draw(st.integers(1, 3)) for _ in range(3))
    if kind == "vectors":
        v = draw(float_arrays((rows, cols), HUGE[0], TINY + HUGE))
        return io.vectors_payload(v), io.parse_vectors, {"vectors": (v, lambda parsed: parsed)}
    if kind == "vector_system":
        shape = (draw(st.integers(1, 3)), rows, cols)
        a = draw(float_arrays(shape, 1e150, TINY))
        b = draw(float_arrays((shape[0], other, cols), 1e150, TINY))
        return (io.vector_system_payload(VectorSystem(a, b, 1e154)), io.parse_vector_system,
                {"a": (a, attrgetter("a")), "b": (b, attrgetter("b"))})
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
    env = dict(os.environ)
    root = str(Path(qfpsim.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited] if inherited else [root])
    return env


class TestDocuments:
    def test_sign_matrix_round_trip(self):
        m = eq_matrix(2)
        doc = io.document("sign_matrix", io.sign_matrix_payload(m))
        parsed = io.parse_sign_matrix(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(parsed.entries, m.entries)

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
        v = compile_smp(eq_parity_protocol(2))
        doc = json.loads(json.dumps(io.document("vector_system", io.vector_system_payload(v))))
        parsed = io.parse_vector_system(doc)
        np.testing.assert_array_equal(parsed.a, v.a)
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
        parsed = parse(json.loads(json.dumps(io.document(kind, payload))))
        for name, (sent, read) in fields.items():
            assert "b64" in payload[name]
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

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_coded_rows_write_as_their_decoded_array(self, monkeypatch, chunk):
        # _CodedRows are recoded from their codes, and written as
        # np.asarray of them would be: whatever the order of the palette, and
        # whichever of its entries the codes use
        monkeypatch.setattr(io, "CHUNK", chunk)
        e = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(5)),
                                              eq_matrix(5))
        palette, codes = e.alphas.palette, e.alphas.codes
        last = palette.size - 1
        cases = {
            "as-built": (palette, codes),
            "reversed": (palette[::-1].copy(), last - codes),
            "unused-entry-first": (np.insert(palette, 0, 0.75), codes + 1),
            "unused-non-finite-entry": (np.append(palette, np.inf), codes),
            "repeated-entry": (np.append(palette, palette[0]),
                               np.where(codes[::2] == 0, last + 1, codes[::2]).astype(np.uint8)),
            "no-rows": (palette, codes[:0]),
        }
        for name, (p, c) in cases.items():
            rows = embeddings._CodedRows(p, c)
            assert io._float_block(rows) == io._float_block(np.asarray(rows)), name
        with pytest.raises(ValueError, match="non-finite"):
            io._float_block(embeddings._CodedRows(np.append(palette, np.nan), codes + 1))

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
    """Compile EQ-1, rewrite its alphas block in ``codec`` (see ``recode``),
    apply ``edit`` to the block, and expect verify to exit 1."""
    emb = tmp_path / "emb.json"
    assert main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)]) == 0
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

    def test_parse_error_exits_1(self, capsys):
        assert main(["margin", "--matrix", "/nonexistent.json"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["margin", "--builtin", "bogus"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        (["compile", "--builtin", "eq", "--n", "2", "--target-dim", "4"],
         "input error: --target-dim requires --reduce"),
        (["compile", "--builtin", "eq", "--n", "1", "--protocol", "PROTOCOL", "--num-r", "3"],
         "input error: --num-r conflicts with --protocol"),
        (["compile", "--builtin", "eq", "--n", "1", "--protocol", "PROTOCOL", "--model", "smp"],
         "input error: --model conflicts with --protocol"),
        (["compile", "--builtin", "eq", "--n", "1", "--no-assemble", "--reduce",
          "--target-dim", "3"], "input error: --reduce, --target-dim conflicts with --no-assemble"),
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
    ], ids=["compile-target-dim", "compile-num-r-protocol", "compile-model-protocol",
            "compile-no-assemble-reduce", "builtin-stray-size", "matrix-stray-size",
            "builtin-missing-size", "simulate-missing-size", "matrix-and-builtin",
            "project-matrix", "verify-embedding-and-realization", "verify-neither"])
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

    def test_math_error_exits_2(self, capsys):
        # eps = 1/2 leaves no room for a swap-test threshold: a precondition
        assert main(["simulate", "--builtin", "eq", "--n", "2", "--eps", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "eps must lie in (0, 1/2)" in err and "Traceback" not in err

    def test_negative_seed_exits_2(self, capsys):
        # random.Random seeds with |seed|, so -1 would silently repeat seed 1
        assert main(["simulate", "--builtin", "eq", "--n", "3", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer, got -1" in err and "Traceback" not in err

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
        emb = tmp_path / "emb.json"
        assert main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)]) == 0
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
        assert main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)]) == 0
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
        assert doc["payload"]["stages"][0]["stage"] == "assembled"

        rep = tmp_path / "verify.json"
        assert main(["verify", "--builtin", "eq", "--n", "2",
                     "--embedding", str(emb), "--out", str(rep)]) == 0
        assert read_doc(rep)["payload"]["valid"] is True

        sim = tmp_path / "sim.json"
        assert main(["simulate", "--builtin", "eq", "--n", "2", "--trials", "20",
                     "--seed", "1", "--out", str(sim)]) == 0
        payload = read_doc(sim)["payload"]
        assert payload["max_error"] <= 1.0
        # the exact worst-pair error of EQ's states at the Hoeffding count, 408
        assert payload["copies"] == 408
        assert payload["exact_error"] == pytest.approx(0.0312, abs=1e-4)
        assert payload["total_qubits"] == 2 * payload["qubits_per_copy"] * payload["copies"]

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e200])
    def test_verify_renormalizes_rows_at_extreme_scales(self, tmp_path, scale):
        # verify renormalizes no row: rows whose squared entries fall into
        # subnormals, to zero, or overflow are refused like any non-unit row,
        # by verify and simulate alike, without a warning
        emb = tmp_path / "emb.json"
        assert main(["compile", "--builtin", "eq", "--n", "2", "--out", str(emb)]) == 0
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
        main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)])
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
        out = tmp_path / "e.json"
        assert main(["compile", "--builtin", "eq", "--n", "7", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["format_version"] == "1.3"
        for name in ("alphas", "betas"):
            block = doc["payload"][name]
            assert block["codec"] == "zlib-palette" and len(block["palette"]) == 3
        assert out.stat().st_size < 20_000

    def test_compile_one_way_model_matches_smp(self, tmp_path):
        payloads = []
        for model in ("smp", "one-way"):
            out = tmp_path / f"{model}.json"
            assert main(["compile", "--builtin", "eq", "--n", "3", "--model", model,
                         "--out", str(out)]) == 0
            payloads.append(read_doc(out)["payload"])
        assert payloads[0] == payloads[1]

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

    def test_compile_reduce_at_or_above_dimension_is_unchanged(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["compile", "--builtin", "eq", "--n", "3", "--reduce", "--target-dim", "32",
                     "--out", str(out)]) == 0
        assembled, reduced = read_doc(out)["payload"]["stages"]
        assert (assembled.pop("stage"), reduced.pop("stage")) == ("assembled", "reduced")
        assert assembled == reduced and reduced["dimension"] == 32

    def test_compile_reduce_exhausts_its_retries(self, capsys):
        assert main(["compile", "--builtin", "eq", "--n", "6", "--reduce",
                     "--target-dim", "120"]) == 2
        err = capsys.readouterr().err
        assert "dimension reduction failed after 20 retries" in err
        assert "Traceback" not in err

    def test_compile_no_assemble_emits_vector_system(self, tmp_path):
        out = tmp_path / "vs.json"
        assert main(["compile", "--builtin", "eq", "--n", "1", "--no-assemble",
                     "--out", str(out)]) == 0
        parsed = io.parse_vector_system(read_doc(out))
        np.testing.assert_allclose(
            parsed.acceptance_matrix(),
            compile_smp(eq_parity_protocol(1)).acceptance_matrix(),
        )

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
    """compile builds, checks and encodes one side of the states at a time,
    from codes where it can, and verify reads palette-coded alphas and betas
    one block of rows at a time; neither writes a byte that the
    whole-embedding path would not."""

    @pytest.fixture(scope="class")
    def eq9(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("eq9") / "eq9.json"
        assert main(["compile", "--builtin", "eq", "--n", "9", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("model", ["smp", "one-way"])
    @pytest.mark.parametrize("n", range(3, 10))
    def test_compile_writes_the_assembled_payload(self, tmp_path, n, model):
        out = tmp_path / "e.json"
        assert main(["compile", "--builtin", "eq", "--n", str(n), "--model", model,
                     "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        stages = payload.pop("stages")
        protocol = (eq_parity_protocol if model == "smp" else eq_parity_one_way_protocol)(n)
        e = assemble_shared_randomness_states(compile_one_way(protocol), eq_matrix(n))
        assert json.dumps(payload) == json.dumps(io.embedding_payload(e))
        assert stages == [{"stage": "assembled", "dimension": e.dimension,
                           "delta0": e.delta0, "delta1": e.delta1}]
        # one form: the reader holds palette and codes, as assembly returns
        # them.  Assembly's palette lists every candidate value and the writer
        # cuts it to the used ones, so the two agree in their decoded bits
        parsed = io.parse_embedding(read_doc(out))
        for side in ("alphas", "betas"):
            got, want = getattr(parsed, side), getattr(e, side)
            assert isinstance(got, embeddings._CodedRows) and isinstance(want, embeddings._CodedRows)
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))

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
    def doubled_row_511(tmp_path, capsys, eq9, side):
        # EQ-9's verifier reads its 512 alphas in four blocks of 128 rows, and
        # the betas in four tiles of 128; row 511 ends the last of each.
        doc = read_doc(eq9)
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

    def test_doubled_row_in_the_last_block_names_its_index(self, tmp_path, capsys, eq9):
        self.doubled_row_511(tmp_path, capsys, eq9, "alphas")

    def test_doubled_beta_in_the_last_tile_names_its_index(self, tmp_path, capsys, eq9):
        self.doubled_row_511(tmp_path, capsys, eq9, "betas")

    def test_alphas_of_later_blocks_are_named_before_betas(self, tmp_path, capsys, eq9):
        # the verifier's first block reads every tile of betas, beta row 0
        # among them, before its last block reads alpha row 511: the alpha is
        # still named, as the reader checks every alpha before any beta, from
        # palette and raw zlib blocks alike, for verify and simulate alike
        for codec in ("zlib-palette", "zlib"):
            doc = read_doc(eq9)
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
            payload = io.embedding_payload(e)
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
        # EQ-8: each side's states would be a 256 x 1024 float64 block, 2 MiB.
        # compile builds one side's codes (0.25 MiB) from the int8 system
        # (0.25 MiB); its peak is the 256 x 256 acceptance matrix (0.5 MiB)
        # and its float32 product's temporaries, within 2.5 MiB in all.
        argv = ["compile", "--builtin", "eq", "--n", "8", "--out", str(tmp_path / "e.json")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 2.5 * MiB

    def test_simulate_holds_the_codes(self, tmp_path):
        # EQ-9's states are held as their codes (2 MiB), not as float64 states
        # (16 MiB).  The rest is the exact law's 512 x 512 per-pair values and
        # the report of them, as nested lists and as JSON text; 24 MiB covers
        # them (32 MiB at float64 states).
        argv = ["simulate", "--builtin", "eq", "--n", "9", "--out", str(tmp_path / "s.json")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 24 * MiB

    def test_verify_holds_one_state_block(self, eq9):
        # EQ-9, whose sides span four verifier row blocks (at EQ-8 one block
        # of 256 rows is all of them): verify holds both sides' codes (2 MiB),
        # one block of 128 alphas and one tile of 128 betas (2 MiB each) and
        # the worst-pair search over its 128 x 512 squares; 8.5 MiB covers them.
        argv = ["verify", "--builtin", "eq", "--n", "9", "--embedding", str(eq9)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= 8.5 * MiB

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
    the bytes json writes for the leaf's .tolist()."""

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
        assert (tmp_path / "d.json").read_text() == json.dumps(self.listed(doc)) + "\n"

    def test_stdout_holds_the_lists_text(self, capsys):
        doc = self.doc()
        io.dump(doc)
        assert capsys.readouterr().out == json.dumps(self.listed(doc)) + "\n"

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
        # the compared compile output really holds a binary float array
        assert "b64" in json.loads((dirs[0] / "states.json").read_bytes())["payload"]["alphas"]

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


def test_cli_never_imports_numpy_ma(tmp_path):
    """np.unique and its kin import numpy.ma on their first call, 6-7 ms of a
    CLI process; no command may pull it in."""
    vectors = np.random.default_rng(0).standard_normal((10, 200))
    write_doc(tmp_path / "vecs.json", "vectors",
              io.vectors_payload(vectors / np.linalg.norm(vectors, axis=1, keepdims=True)))
    commands = [
        ["compile", "--builtin", "eq", "--n", "3", "--out", "eq3.json"],
        ["verify", "--builtin", "eq", "--n", "3", "--embedding", "eq3.json", "--out", "v.json"],
        ["project", "--vectors", "vecs.json", "--dim", "16", "--out", "p.json"],
        ["margin", "--builtin", "ham", "--n", "4", "--d", "1", "--heuristic", "--out", "m.json"],
        ["simulate", "--builtin", "eq", "--n", "2", "--trials", "5", "--out", "s.json"],
    ]
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


@pytest.mark.parametrize("codec", ["zlib-palette", "zlib"])
def test_readme_decode_recipe(tmp_path, codec):
    """README's numpy-only recipe decodes both codecs as the reader does."""
    if codec == "zlib-palette":
        emb = tmp_path / "eq3.json"
        assert main(["compile", "--builtin", "eq", "--n", "3", "--out", str(emb)]) == 0
        doc = read_doc(emb)
    else:
        alphas = np.random.default_rng(0).standard_normal((5, 300))
        doc = {"payload": {"alphas": io.vectors_payload(alphas)["vectors"]}}
    assert doc["payload"]["alphas"]["codec"] == codec
    scope = {"doc": doc}
    exec(readme_decode_recipe(), scope)
    expected = io._array(doc["payload"], "alphas")
    assert np.array_equal(scope["alphas"].view(np.uint64), expected.view(np.uint64))


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``qfpsim`` line of README's CLI block runs in order and exits 0;
    the block projects ``vecs.json``, which it does not make, so it is made
    here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("qfpsim ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    vectors = np.random.default_rng(0).standard_normal((10, 400))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    write_doc("vecs.json", "vectors", io.vectors_payload(vectors))
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)
        capsys.readouterr()
