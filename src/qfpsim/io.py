"""JSON interchange documents for matrices, embeddings, realizations, vector
systems and protocols.

Every document carries ``format_version``, a ``kind`` tag, a kind-specific
``payload`` and a ``provenance`` block; ``load`` reads any 1.x version.
Float arrays (embedding and realization ``alphas``/``betas``, vector system
``a``/``b``, ``vectors``) are written as one little-endian float64 block,
``{"dtype": "<f8", "shape": [...], "codec": "zlib", "b64": "..."}``, its bytes
zlib-compressed (format 1.2; fingerprint states hold a few distinct values and
many zeros).  The reader also accepts blocks without ``codec``, holding the
raw bytes (the 1.1 form), and arrays as nested lists (the 1.0 form).  Scalars
and the remaining lists are written in Python's shortest round-trip repr.
Either way parse(serialize(x)) is bit-identical for doubles.  The compressed
bytes may differ between zlib builds; the decoded arrays do not.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import zlib

import numpy as np

from . import __version__ as VERSION
from .compiler import ClassicalSMPProtocol, OneWayProtocol, VectorSystem
from .embeddings import Realization, SignMatrix, ThresholdEmbedding
from .linalg import unit_rows

FORMAT_VERSION = "1.2"
FLOAT_DTYPE = "<f8"
CODEC = "zlib"

KINDS = ("sign_matrix", "embedding", "realization", "vector_system", "protocol", "vectors", "report")


class DocumentError(Exception):
    """Malformed interchange document (bad JSON, schema, or kind)."""


def document(kind: str, payload: dict, command: str = "", seed=None) -> dict:
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "payload": payload,
        "provenance": {"command": command, "seed": seed, "version": VERSION},
    }


def dump(doc: dict, path: str | None = None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    # The newline goes in its own write: text + "\n" would copy the document.
    if path is None:
        sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read document {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise DocumentError(f"{path!r} is not an interchange document")
    version = doc.get("format_version")
    major = FORMAT_VERSION.split(".")[0]
    if str(version).split(".")[0] != major:
        raise DocumentError(
            f"{path!r} has format_version {version!r}; this reader reads {major}.x"
        )
    return doc


def _payload(doc: dict, kind: str) -> dict:
    if doc.get("kind") != kind:
        raise DocumentError(f"expected a {kind!r} document, got {doc.get('kind')!r}")
    payload = doc["payload"]
    if not isinstance(payload, dict):
        raise DocumentError("payload must be an object")
    return payload


def _field(payload: dict, name: str):
    if name not in payload:
        raise DocumentError(f"payload is missing field {name!r}")
    return payload[name]


def _float_block(arr: np.ndarray) -> dict:
    """``arr`` as one little-endian float64 block, zlib-compressed, in base64."""
    arr = np.ascontiguousarray(arr, dtype=FLOAT_DTYPE)
    if not np.isfinite(arr).all():
        raise ValueError("float array has a non-finite entry")
    data = zlib.compress(arr.reshape(-1).view(np.uint8), 1)
    return {"dtype": FLOAT_DTYPE, "shape": list(arr.shape), "codec": CODEC,
            "b64": base64.b64encode(data).decode("ascii")}


def _inflated(raw: bytes, need: int, name: str) -> bytes:
    """The zlib stream ``raw``, which must inflate to exactly ``need`` bytes.
    At most need + 1 bytes are ever inflated, so the memory a stream takes is
    bounded by the shape the document declares, not by the stream."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(raw, min(max(need, 1), sys.maxsize))
        more = b"" if inflater.eof else inflater.decompress(inflater.unconsumed_tail, 1)
    except zlib.error as exc:
        raise DocumentError(f"field {name!r} has a corrupt zlib stream: {exc}") from exc
    if more or len(out) > need:
        raise DocumentError(f"field {name!r} inflates to more than {need} bytes")
    if not inflater.eof:
        raise DocumentError(f"field {name!r} has a truncated zlib stream")
    if inflater.unused_data:
        raise DocumentError(f"field {name!r} has {len(inflater.unused_data)} bytes "
                            "after its zlib stream")
    return out


def _decoded(value, name: str):
    """A float block as an array; any other value is returned as it is."""
    if not isinstance(value, dict):
        return value
    if value.get("dtype") != FLOAT_DTYPE:
        raise DocumentError(f"field {name!r} has dtype {value.get('dtype')!r}, "
                            f"expected {FLOAT_DTYPE!r}")
    shape = value.get("shape")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DocumentError(f"field {name!r} has shape {shape!r}, "
                            "expected a list of non-negative integers")
    codec = value.get("codec")
    if codec not in (None, CODEC):
        raise DocumentError(f"field {name!r} has codec {codec!r}, expected {CODEC!r} or none")
    try:
        raw = base64.b64decode(value.get("b64"), validate=True)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field {name!r} has no valid base64 'b64': {exc}") from exc
    need = 8 * math.prod(shape)
    if codec is not None:
        raw = _inflated(raw, need, name)
    if len(raw) != need:
        raise DocumentError(f"field {name!r} holds {len(raw)} bytes, shape {shape} needs {need}")
    return np.frombuffer(raw, dtype=FLOAT_DTYPE).reshape(shape)


def _array(payload: dict, name: str, dtype=None) -> np.ndarray:
    """Field ``name`` as an array, from a float block or a nested list; a
    ragged, non-numeric or non-finite list is malformed."""
    try:
        arr = np.asarray(_decoded(_field(payload, name), name), dtype=dtype)
        finite = bool(np.isfinite(arr).all())
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field {name!r} is not a numeric array: {exc}") from exc
    if not finite:
        raise DocumentError(f"field {name!r} has a non-finite entry")
    return arr


def _integers(payload: dict, name: str) -> np.ndarray:
    """Field ``name`` as an array of JSON integers; anything else is malformed."""
    arr = _array(payload, name)
    if arr.dtype.kind not in "iu":
        raise DocumentError(f"field {name!r} is not an array of integers")
    return arr


def _integer(payload: dict, name: str) -> int:
    """Field ``name`` as an int; anything but a JSON integer is malformed."""
    value = _field(payload, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"field {name!r} is not an integer: {value!r}")
    return value


def _scalar(payload: dict, name: str) -> float:
    """Field ``name`` as a float; a non-numeric or non-finite value is malformed."""
    try:
        value = float(_field(payload, name))
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field {name!r} is not a number: {exc}") from exc
    if not math.isfinite(value):
        raise DocumentError(f"field {name!r} is not finite: {value!r}")
    return value


# --- sign matrices ---------------------------------------------------------


def sign_matrix_payload(m: SignMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.entries.tolist()}


def parse_sign_matrix(doc: dict) -> SignMatrix:
    payload = _payload(doc, "sign_matrix")
    try:
        m = SignMatrix(np.asarray(_field(payload, "entries")))
    except ValueError as exc:
        raise DocumentError(f"invalid sign matrix: {exc}") from exc
    if m.rows != _field(payload, "rows") or m.cols != _field(payload, "cols"):
        raise DocumentError("declared sign matrix shape does not match the entries")
    return m


# --- embeddings and realizations ------------------------------------------


def embedding_payload(e: ThresholdEmbedding) -> dict:
    return {
        "dimension": e.dimension,
        "delta0": e.delta0,
        "delta1": e.delta1,
        "alphas": _float_block(e.alphas),
        "betas": _float_block(e.betas),
    }


def _vectors(payload: dict, name: str, renormalize: bool) -> np.ndarray:
    vectors = _array(payload, name, np.float64)
    if vectors.ndim != 2:
        raise DocumentError(f"field {name!r} is not a 2-d array: shape {vectors.shape}")
    if not renormalize:
        return vectors
    zero = np.flatnonzero(~vectors.any(axis=1))
    if zero.size:
        raise DocumentError(f"field {name!r} row {zero[0]} has norm 0 and cannot be renormalized")
    return unit_rows(vectors)


def _vector_pair(payload: dict, renormalize: bool) -> tuple[np.ndarray, np.ndarray]:
    return _vectors(payload, "alphas", renormalize), _vectors(payload, "betas", renormalize)


def parse_embedding(doc: dict, renormalize: bool = False) -> ThresholdEmbedding:
    payload = _payload(doc, "embedding")
    alphas, betas = _vector_pair(payload, renormalize)
    return ThresholdEmbedding(alphas, betas, _scalar(payload, "delta0"),
                              _scalar(payload, "delta1"))


def realization_payload(r: Realization) -> dict:
    return {
        "dimension": r.dimension,
        "gamma": r.gamma,
        "alphas": _float_block(r.alphas),
        "betas": _float_block(r.betas),
    }


def parse_realization(doc: dict, renormalize: bool = False) -> Realization:
    payload = _payload(doc, "realization")
    alphas, betas = _vector_pair(payload, renormalize)
    return Realization(alphas, betas, _scalar(payload, "gamma"))


# --- vector systems --------------------------------------------------------


def vector_system_payload(v: VectorSystem) -> dict:
    return {"norm_bound": v.norm_bound, "a": _float_block(v.a), "b": _float_block(v.b)}


def parse_vector_system(doc: dict) -> VectorSystem:
    payload = _payload(doc, "vector_system")
    return VectorSystem(
        _array(payload, "a", np.float64),
        _array(payload, "b", np.float64),
        _scalar(payload, "norm_bound"),
    )


# --- protocols -------------------------------------------------------------


def protocol_payload(p: ClassicalSMPProtocol | OneWayProtocol) -> dict:
    base = {
        "n": p.n,
        "c": p.c,
        "rand_strings": list(p.rand_strings),
        "alice_messages": p.alice_messages.tolist(),
    }
    if isinstance(p, ClassicalSMPProtocol):
        base["model"] = "smp"
        base["bob_messages"] = p.bob_messages.tolist()
        base["accept"] = p.accept.tolist()
    else:
        base["model"] = "one_way"
        base["bob_accept"] = p.bob_accept.tolist()
    return base


def parse_protocol(doc: dict) -> ClassicalSMPProtocol | OneWayProtocol:
    payload = _payload(doc, "protocol")
    model = _field(payload, "model")
    if model not in ("smp", "one_way"):
        raise DocumentError(f"unknown protocol model {model!r}")
    rand_strings = _integers(payload, "rand_strings")
    if rand_strings.ndim != 1:
        raise DocumentError("field 'rand_strings' must be a list of integers")
    common = dict(
        n=_integer(payload, "n"),
        c=_integer(payload, "c"),
        rand_strings=tuple(rand_strings),
        alice_messages=_integers(payload, "alice_messages"),
    )
    try:
        if model == "smp":
            return ClassicalSMPProtocol(
                bob_messages=_integers(payload, "bob_messages"),
                accept=_integers(payload, "accept"),
                **common,
            )
        return OneWayProtocol(bob_accept=_integers(payload, "bob_accept"), **common)
    except ValueError as exc:
        raise DocumentError(f"invalid protocol: {exc}") from exc


# --- plain vector lists ----------------------------------------------------


def vectors_payload(vectors: np.ndarray) -> dict:
    return {"vectors": _float_block(vectors)}


def parse_vectors(doc: dict) -> np.ndarray:
    payload = _payload(doc, "vectors")
    arr = _array(payload, "vectors", np.float64)
    if arr.ndim != 2:
        raise DocumentError("vectors payload must be a list of equal-length vectors")
    return arr
