"""JSON interchange documents for matrices, embeddings, realizations, vector
systems and protocols.

Every document carries ``format_version``, a ``kind`` tag, a kind-specific
``payload`` and a ``provenance`` block; ``load`` reads any 1.x version.
Float arrays (embedding and realization ``alphas``/``betas``, vector system
``a``/``b``, ``vectors``) are written as one little-endian float64 block in
one of two forms, chosen from the block's contents alone (format 1.3):

- ``{"dtype": "<f8", "shape": [...], "codec": "zlib-palette", "palette":
  [v0, ...], "b64": "..."}`` when the block holds 1 to 256 distinct bit
  patterns.  ``b64`` is a zlib stream of one uint8 code per entry, and the
  entry is ``palette[code]``.  Fingerprint states are built from scaled
  one-hot and indicator vectors, so a compiled state block holds a few values.
- ``{"dtype": "<f8", "shape": [...], "codec": "zlib", "b64": "..."}``
  otherwise (the 1.2 form): a zlib stream of the float64 bytes themselves.

The palette is built on the bit patterns, so ``-0.0``, ``+0.0`` and
subnormals are kept apart and parse(serialize(x)) is bit-identical for
doubles.  A 1.2 reader rejects a palette block as an unknown codec.  The reader
also accepts blocks without ``codec``, holding the raw bytes (the 1.1 form),
and arrays as nested lists (the 1.0 form).  Scalars and the remaining lists
are written in Python's shortest round-trip repr.  The compressed bytes may
differ between zlib builds; the decoded arrays do not.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import zlib
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__ as VERSION
from .embeddings import Realization, SignMatrix, ThresholdEmbedding, _require_unit_rows
from .linalg import CHUNK

# imported where used, so reading other kinds of document never loads the compiler
if TYPE_CHECKING:
    from .compiler import ClassicalSMPProtocol, OneWayProtocol, VectorSystem
FORMAT_VERSION = "1.3"
FLOAT_DTYPE = "<f8"
CODEC = "zlib"
PALETTE_CODEC = "zlib-palette"
PALETTE_MAX = 256
# The leaf rule: an integer field takes JSON integers only, a number field JSON
# integers or floats.  true, false, strings and null never pass: the types are
# compared exactly, and type(True) is bool, not int.
_JSON_TYPES = {"integer": (int,), "number": (int, float)}

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
    # No indent: with one, json falls back from its C encoder to pure Python.
    text = json.dumps(doc, allow_nan=False)
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


def _palette(bits: np.ndarray) -> np.ndarray | None:
    """The distinct entries of the uint64 array ``bits`` in ascending order, or
    None if there are none or more than PALETTE_MAX.  Each chunk is merged in
    by a plain sort: np.unique would import numpy.ma, 6-7 ms of CLI start-up."""
    palette = bits[:0]
    for start in range(0, bits.size, CHUNK):
        merged = np.sort(np.concatenate([palette, bits[start:start + CHUNK]]))
        palette = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
        if palette.size > PALETTE_MAX:
            return None
    return palette if palette.size else None


def _float_block(arr: np.ndarray) -> dict:
    """``arr`` as one little-endian float64 block, zlib-compressed, in base64:
    palette-coded when it holds at most PALETTE_MAX distinct bit patterns.
    Entries are checked, coded and deflated one ``CHUNK`` at a time."""
    arr = np.ascontiguousarray(arr, dtype=FLOAT_DTYPE)
    bits = arr.reshape(-1).view("<u8")
    chunks = [slice(start, start + CHUNK) for start in range(0, bits.size, CHUNK)]
    if not all(np.isfinite(bits[s].view(FLOAT_DTYPE)).all() for s in chunks):
        raise ValueError("float array has a non-finite entry")
    block = {"dtype": FLOAT_DTYPE, "shape": list(arr.shape), "codec": CODEC}
    data = (bits[s].view(np.uint8) for s in chunks)
    palette = _palette(bits)
    if palette is not None:
        block.update(codec=PALETTE_CODEC, palette=palette.view(FLOAT_DTYPE).tolist())
        data = (np.searchsorted(palette, bits[s]).astype(np.uint8) for s in chunks)
    # one stream deflated chunk by chunk: the bytes of zlib.compress(all data, 1)
    deflater = zlib.compressobj(1)
    block["b64"] = base64.b64encode(b"".join(
        [*map(deflater.compress, data), deflater.flush()])).decode("ascii")
    return block


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


def _palette_field(value: dict, name: str) -> np.ndarray:
    """The ``palette`` of a palette block: 1 to PALETTE_MAX finite numbers."""
    palette = value.get("palette")
    if not (isinstance(palette, list) and 1 <= len(palette) <= PALETTE_MAX):
        raise DocumentError(f"field {name!r} has no palette of 1 to {PALETTE_MAX} entries")
    if not all(type(v) in _JSON_TYPES["number"] for v in palette):
        raise DocumentError(f"field {name!r} has a palette entry that is not a number")
    try:
        palette = np.array(palette, dtype=np.float64)
    except OverflowError as exc:
        raise DocumentError(f"field {name!r} has a palette entry out of range: {exc}") from exc
    if not np.isfinite(palette).all():
        raise DocumentError(f"field {name!r} has a non-finite palette entry")
    return palette


def _decoded(value, name: str, coded: bool = False):
    """A float block as an array; any other value is returned as it is.  With
    ``coded``, a palette block is returned as its palette and its codes."""
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
    if codec not in (None, CODEC, PALETTE_CODEC):
        raise DocumentError(f"field {name!r} has codec {codec!r}, "
                            f"expected {PALETTE_CODEC!r}, {CODEC!r} or none")
    if codec == PALETTE_CODEC:
        palette = _palette_field(value, name)
    elif "palette" in value:
        raise DocumentError(f"field {name!r} has a palette but codec {codec!r}")
    try:
        raw = base64.b64decode(value.get("b64"), validate=True)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field {name!r} has no valid base64 'b64': {exc}") from exc
    need = (1 if codec == PALETTE_CODEC else 8) * math.prod(shape)
    if codec is not None:
        raw = _inflated(raw, need, name)
    if len(raw) != need:
        raise DocumentError(f"field {name!r} holds {len(raw)} bytes, shape {shape} needs {need}")
    if codec != PALETTE_CODEC:
        return np.frombuffer(raw, dtype=FLOAT_DTYPE).reshape(shape)
    codes = np.frombuffer(raw, dtype=np.uint8)
    if codes.size and codes.max() >= palette.size:
        raise DocumentError(f"field {name!r} has code {codes.max()}, "
                            f"its palette has {palette.size} entries")
    if coded:
        return palette, codes.reshape(shape)
    # Indexing, not np.take: np.take would copy the codes to intp first.
    return palette[codes].reshape(shape)


def _leaves_are(values: list, leaves: str) -> bool:
    """Whether every leaf of the nested lists ``values`` is a JSON ``leaves``
    ("integer" or "number"), one level of the nesting at a time."""
    allowed = {list, *_JSON_TYPES[leaves]}
    while values:
        kinds = set(map(type, values))
        if not kinds <= allowed:
            return False
        values = [] if list not in kinds else list(
            chain.from_iterable(v for v in values if type(v) is list))
    return True


def _array(payload: dict, name: str, dtype=None, leaves: str = "number") -> np.ndarray:
    """Field ``name`` as an array, from a float block or a nested list; a
    ragged or non-finite list, or one with a leaf that is not a JSON
    ``leaves``, is malformed."""
    value = _field(payload, name)
    if isinstance(value, list) and not _leaves_are(value, leaves):
        raise DocumentError(f"field {name!r} has an entry that is not a JSON {leaves}")
    try:
        arr = np.asarray(_decoded(value, name), dtype=dtype)
        finite = bool(np.isfinite(arr).all())
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"field {name!r} is not a numeric array: {exc}") from exc
    if not finite:
        raise DocumentError(f"field {name!r} has a non-finite entry")
    return arr


def _integers(payload: dict, name: str) -> np.ndarray:
    """Field ``name`` as an array of JSON integers; anything else is malformed."""
    arr = _array(payload, name, leaves="integer")
    if arr.dtype.kind not in "iu":
        raise DocumentError(f"field {name!r} is not an array of integers")
    return arr


def _integer(payload: dict, name: str) -> int:
    """Field ``name`` as an int; anything but a JSON integer is malformed."""
    value = _field(payload, name)
    if type(value) not in _JSON_TYPES["integer"]:
        raise DocumentError(f"field {name!r} is not a JSON integer: {value!r}")
    return value


def _scalar(payload: dict, name: str) -> float:
    """Field ``name`` as a float; anything but a finite JSON number is malformed."""
    value = _field(payload, name)
    if type(value) not in _JSON_TYPES["number"]:
        raise DocumentError(f"field {name!r} is not a JSON number: {value!r}")
    # false for NaN, for an infinity and for an int too large for a float64
    if not abs(value) <= sys.float_info.max:
        raise DocumentError(f"field {name!r} is not a finite float64")
    return float(value)


def _build(what: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; a ValueError from its checks is malformed input."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise DocumentError(f"invalid {what}: {exc}") from exc


# --- sign matrices ---------------------------------------------------------


def sign_matrix_payload(m: SignMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.entries.tolist()}


def parse_sign_matrix(doc: dict) -> SignMatrix:
    payload = _payload(doc, "sign_matrix")
    m = _build("sign matrix", SignMatrix, _integers(payload, "entries"))
    if m.rows != _integer(payload, "rows") or m.cols != _integer(payload, "cols"):
        raise DocumentError("declared sign matrix shape does not match the entries")
    return m


# --- embeddings and realizations ------------------------------------------


def embedding_payload(e: ThresholdEmbedding) -> dict:
    return states_payload((e.alphas, e.betas).__getitem__, e.delta0, e.delta1)


def states_payload(side, delta0: float, delta1: float) -> dict:
    """The payload of the embedding whose alphas and betas are ``side(0)`` and
    ``side(1)``: each is encoded before the other is asked for."""
    alphas = _float_block(side(0))
    betas = _float_block(side(1))
    return {"dimension": alphas["shape"][1], "delta0": delta0, "delta1": delta1,
            "alphas": alphas, "betas": betas}


def _vectors(payload: dict, name: str) -> np.ndarray:
    """Field ``name`` as a 2-d float array, read as written."""
    vectors = _array(payload, name, np.float64)
    if vectors.ndim != 2:
        raise DocumentError(f"field {name!r} is not a 2-d array: shape {vectors.shape}")
    return vectors


def parse_embedding(doc: dict) -> ThresholdEmbedding:
    payload = _payload(doc, "embedding")
    return _build("embedding", ThresholdEmbedding, _vectors(payload, "alphas"),
                  _vectors(payload, "betas"), _scalar(payload, "delta0"),
                  _scalar(payload, "delta1"))


class _CodedRows:
    """The rows of a 2-d palette block, decoded from its codes one slice of
    rows at a time and unit-checked as they are read: a non-unit row is an
    input error naming its index in the whole block."""

    def __init__(self, palette: np.ndarray, codes: np.ndarray):
        self.palette, self.codes, self.shape = palette, codes, codes.shape

    def __getitem__(self, rows: slice) -> np.ndarray:
        block = self.palette[self.codes[rows]]
        _build("embedding", _require_unit_rows, "alphas", block, rows.start)
        return block


def parse_embedding_by_rows(doc: dict):
    """``parse_embedding(doc)`` as ``verify_threshold_embedding`` reads it: a
    palette-coded ``alphas`` block stays as its codes, 1 byte an entry, read
    one block of rows at a time; the rest is checked as ``ThresholdEmbedding``
    checks it.  Other documents parse whole."""
    payload = _payload(doc, "embedding")
    block = _field(payload, "alphas")
    if not (isinstance(block, dict) and block.get("codec") == PALETTE_CODEC):
        return parse_embedding(doc)
    alphas = _CodedRows(*_decoded(block, "alphas", coded=True))
    if len(alphas.shape) != 2:
        raise DocumentError(f"field 'alphas' is not a 2-d array: shape {alphas.shape}")
    e = _build("embedding", ThresholdEmbedding, np.empty((0, alphas.shape[1])),
               _vectors(payload, "betas"), _scalar(payload, "delta0"), _scalar(payload, "delta1"))
    return SimpleNamespace(alphas=alphas, betas=e.betas, delta0=e.delta0, delta1=e.delta1)


def realization_payload(r: Realization) -> dict:
    return {
        "dimension": r.dimension,
        "gamma": r.gamma,
        "alphas": _float_block(r.alphas),
        "betas": _float_block(r.betas),
    }


def parse_realization(doc: dict) -> Realization:
    payload = _payload(doc, "realization")
    return _build("realization", Realization, _vectors(payload, "alphas"),
                  _vectors(payload, "betas"), _scalar(payload, "gamma"))


# --- vector systems --------------------------------------------------------


def vector_system_payload(v: VectorSystem) -> dict:
    return {"norm_bound": v.norm_bound, "a": _float_block(v.a), "b": _float_block(v.b)}


def parse_vector_system(doc: dict) -> VectorSystem:
    from .compiler import VectorSystem
    payload = _payload(doc, "vector_system")
    return _build(
        "vector system",
        VectorSystem,
        _array(payload, "a", np.float64),
        _array(payload, "b", np.float64),
        _scalar(payload, "norm_bound"),
    )


# --- protocols -------------------------------------------------------------


def protocol_payload(p: ClassicalSMPProtocol | OneWayProtocol) -> dict:
    from .compiler import ClassicalSMPProtocol
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
    from .compiler import ClassicalSMPProtocol, OneWayProtocol
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
    if model == "smp":
        return _build("protocol", ClassicalSMPProtocol,
                      bob_messages=_integers(payload, "bob_messages"),
                      accept=_integers(payload, "accept"), **common)
    return _build("protocol", OneWayProtocol, bob_accept=_integers(payload, "bob_accept"),
                  **common)


# --- plain vector lists ----------------------------------------------------


def vectors_payload(vectors: np.ndarray) -> dict:
    return {"vectors": _float_block(vectors)}


def parse_vectors(doc: dict) -> np.ndarray:
    return _vectors(_payload(doc, "vectors"), "vectors")
