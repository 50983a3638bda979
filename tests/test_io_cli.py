import base64
import json
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qfpsim
from qfpsim import io
from qfpsim.cli import main
from qfpsim.compiler import VectorSystem, compile_smp
from qfpsim.embeddings import Realization, SignMatrix, ThresholdEmbedding
from qfpsim.problems import eq_matrix, eq_parity_protocol
from tests.test_embeddings import eq_explicit_realization, eq_orthonormal_embedding


def write_doc(path, kind, payload):
    io.dump(io.document(kind, payload), str(path))
    return str(path)


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)


def block_array(block):
    """A float block's array, decoded with numpy alone."""
    return np.frombuffer(base64.b64decode(block["b64"]), dtype="<f8").reshape(block["shape"])


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
        return (io.vector_system_payload(VectorSystem(a, b, 1e160)), io.parse_vector_system,
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
            assert np.array_equal(sent.view(np.uint64), read(parsed).view(np.uint64))

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


class TestCliExitCodes:
    def test_margin_builtin_success(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["margin", "--builtin", "ip", "--k", "2", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["kind"] == "report"
        assert doc["payload"]["upper"] == pytest.approx(0.5, abs=1e-6)

    def test_parse_error_exits_1(self, capsys):
        assert main(["margin", "--matrix", "/nonexistent.json"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["margin", "--builtin", "bogus"])
        assert exc.value.code == 1

    def test_math_error_exits_2(self, tmp_path, capsys):
        # A promise matrix without --heuristic trips the precondition path.
        m = SignMatrix([[1, 0], [0, -1]])
        path = write_doc(tmp_path / "m.json", "sign_matrix", io.sign_matrix_payload(m))
        assert main(["margin", "--matrix", path]) == 2

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

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda block: block.update(dtype=">f8"), id="dtype"),
        pytest.param(lambda block: block.update(shape=[2.0, 8]), id="float-shape"),
        pytest.param(lambda block: block.update(shape=[-2, -8]), id="negative-shape"),
        pytest.param(lambda block: block.update(shape="2x8"), id="shape-not-list"),
        pytest.param(lambda block: block.update(b64="not base64!"), id="not-base64"),
        pytest.param(lambda block: block.update(b64=block["b64"][:-12]), id="short-bytes"),
        pytest.param(lambda block: block.update(shape=[3, 8]), id="byte-count"),
        pytest.param(lambda block: block.update(
            b64=base64.b64encode(np.full(16, np.nan)).decode()), id="nan-bytes"),
        pytest.param(lambda block: block.update(
            b64=base64.b64encode(np.full(16, -np.inf)).decode()), id="inf-bytes"),
    ])
    def test_malformed_float_block_exits_1(self, tmp_path, capsys, edit):
        emb = tmp_path / "emb.json"
        assert main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)]) == 0
        doc = read_doc(emb)
        assert doc["payload"]["alphas"]["shape"] == [2, 8]
        edit(doc["payload"]["alphas"])
        with open(emb, "w") as fh:
            json.dump(doc, fh)
        assert main(["verify", "--builtin", "eq", "--n", "1", "--embedding", str(emb)]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "'alphas'" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("n", "abc"),
        ("alice_messages", [[0, 1], [1]]),
        ("rand_strings", 5),
        ("c", None),
    ])
    def test_malformed_protocol_field_exits_1(self, tmp_path, capsys, field, value):
        payload = io.protocol_payload(eq_parity_protocol(1))
        payload[field] = value
        path = write_doc(tmp_path / "p.json", "protocol", payload)
        assert main(["compile", "--protocol", path, "--builtin", "eq", "--n", "1"]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err


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
        assert payload["total_qubits"] == 2 * payload["qubits_per_copy"] * payload["copies"]

    def test_corrupted_embedding_names_offending_pair(self, tmp_path):
        emb = tmp_path / "emb.json"
        main(["compile", "--builtin", "eq", "--n", "1", "--out", str(emb)])
        doc = read_doc(emb)
        as_lists(doc["payload"], "alphas", "betas")
        # Point one Alice state at the wrong Bob state: renormalization keeps
        # it parseable, the verifier must then blame a concrete pair.
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
        assert main(["project", "--vectors", vec, "--dim", "400", "--identity",
                     "--eps", "0.01", "--out", str(out)]) == 0
        payload = read_doc(out)["payload"]
        assert payload["ok"] is True
        assert payload["max_distortion"] == pytest.approx(0.0, abs=1e-12)

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
        main(["margin", "--builtin", "eq", "--n", "1", "--heuristic", "--dim", "3",
              "--seed", "1", "--out", str(a)])
        main(["margin", "--builtin", "eq", "--n", "1", "--heuristic", "--dim", "3",
              "--seed", "2", "--out", str(b)])
        pa, pb = read_doc(a)["payload"], read_doc(b)["payload"]
        assert pa["upper"] == pb["upper"]  # spectral bounds are seed-free


def test_console_script_runs():
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
