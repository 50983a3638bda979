"""JSON interchange documents: sign matrices, embeddings, realizations,
protocols, vector lists and reports.

Every document carries ``format_version`` (``FORMAT_VERSION``), a ``kind`` tag,
a kind-specific ``payload`` and a ``provenance`` block; ``load`` reads any 1.x
version.  Each array is written as one block by its dtype:

- an integer array (sign matrix ``entries``, a compiled system's sides ``a``
  and ``b``, a ``simulate`` report's ``pair_group``) whose entries lie in
  [-127, 127] is an int8 block, ``{"dtype": "|i1", "shape": [...], "codec":
  "zlib", "b64": "..."}``: a zlib stream of one byte an entry
  (``integer_block``), or with ``"codec": "zlib-bits"`` when every entry is 0
  or 1, of its ``np.packbits`` bytes (first entry in the high bit, pad bits
  zero); past int8 it is a float block of the same values;
- a float array (``alphas``, ``betas``, ``vectors``) is a little-endian
  float64 block, ``{"dtype": "<f8", "shape": [...], "codec": "zlib-palette",
  "palette": [v0, ...], "b64": "..."}`` when it holds 1 to 256 distinct bit
  patterns, a zlib stream of one uint8 code per entry whose entry is
  ``palette[code]``, and ``{"dtype": "<f8", "shape": [...], "codec": "zlib",
  "b64": "..."}`` otherwise, a zlib stream of the float64 bytes themselves.

The palette is the distinct bit patterns (``linalg._distinct``), so ``-0.0``,
``+0.0`` and subnormals are kept apart and parse(serialize(x)) is bit-identical
for doubles.  Scalars and the remaining lists (protocol tables among them) are
written in Python's shortest round-trip repr, and every document without
whitespace between items or after keys.  The compressed bytes may differ
between zlib builds; the decoded arrays do not.

The reader also accepts every earlier 1.x form: arrays as nested lists (1.0),
float blocks without ``codec`` holding the raw bytes (1.1), and palette-coded
float blocks wherever an int8 block is now written, such as a 1.4 sign matrix,
and int8 blocks of one byte an entry wherever a bit block is (1.5).

``compile`` writes an ``embedding`` as a ``system`` (``vector_system_payload``:
``norm_bound`` and the sides ``a`` and ``b``) in place of ``alphas`` and
``betas``.  ``parse_embedding`` is the one reader of embedding documents, for
every command that takes one: a ``system`` becomes a ``CompiledEmbedding``,
whose ``VectorSystem`` bounds every slice, and ``alphas`` and ``betas`` (a 1.4
compiled document's palette-coded states among them) become a
``ThresholdEmbedding`` of float64 arrays, which unit-checks each row once.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import zlib
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import __version__ as VERSION
from .embeddings import (
    CompiledEmbedding,
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    VectorSystem,
    _peak,
)
from .linalg import CHUNK, _distinct

# imported where used, so reading other kinds of document never loads the compiler
if TYPE_CHECKING:
    from .compiler import ClassicalSMPProtocol, OneWayProtocol
FORMAT_VERSION = "1.6"
FLOAT_DTYPE = "<f8"
INT8_DTYPE = "|i1"
CODEC = "zlib"
BITS_CODEC = "zlib-bits"
PALETTE_CODEC = "zlib-palette"
PALETTE_MAX = 256  # the values a uint8 code tells apart
SEPARATORS = (",", ":")  # no whitespace between items or after keys
# The leaf rule: an integer field takes JSON integers only, a number field JSON
# integers or floats.  true, false, strings and null never pass: the types are
# compared exactly, and type(True) is bool, not int.
_JSON_TYPES = {"integer": (int,), "number": (int, float)}

KINDS = ("sign_matrix", "embedding", "realization", "protocol", "vectors", "report")


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


# What dump's encoder writes in place of each 2-d array leaf, whose rows go there.
_ROWS_SLOT = "\0rows\0"


def dump(doc: dict, path: str | None = None) -> None:
    """Write ``doc`` as one line of compact JSON to ``path`` (default: stdout).  A 2-d
    ndarray leaf is written as its ``.tolist()`` would be, one row at a time,
    so neither the nested lists nor their text is ever whole."""
    arrays = []

    def rows_slot(value):
        if not (isinstance(value, np.ndarray) and value.ndim == 2):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not np.isfinite(value).all():  # refused before a byte is written
            raise ValueError("Out of range float values are not JSON compliant")
        arrays.append(value)
        return _ROWS_SLOT

    # No indent: with one, json falls back from its C encoder to pure Python.
    pieces = json.dumps(doc, allow_nan=False, default=rows_slot,
                        separators=SEPARATORS).split(json.dumps(_ROWS_SLOT))
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"a string of the document equals {_ROWS_SLOT!r}")
    if path is None:
        _write(sys.stdout, pieces, arrays)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write(fh, pieces, arrays)


def _write(fh, pieces: list[str], arrays: list[np.ndarray]) -> None:
    """``pieces`` with the rows of each array between two of them, and a newline."""
    fh.write(pieces[0])
    for arr, piece in zip(arrays, pieces[1:]):
        fh.write("[")
        for i, row in enumerate(arr):
            fh.write(("," if i else "") + json.dumps(row.tolist(), separators=SEPARATORS))
        fh.write("]")
        fh.write(piece)  # not "]" + piece: that would copy the rest of the document
    fh.write("\n")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or not JSON
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


def _float_block(arr) -> dict:
    """``arr`` as one little-endian float64 block, zlib-compressed, in base64:
    palette-coded when it holds 1 to PALETTE_MAX distinct bit patterns
    (``_distinct``).  Entries are checked, coded and deflated one ``CHUNK`` at a time."""
    arr = np.ascontiguousarray(arr, dtype=FLOAT_DTYPE)
    bits = arr.reshape(-1).view("<u8")
    chunks = [slice(start, start + CHUNK) for start in range(0, bits.size, CHUNK)]
    if not all(np.isfinite(bits[s].view(FLOAT_DTYPE)).all() for s in chunks):
        raise ValueError("float array has a non-finite entry")
    palette_bits = _distinct(bits, PALETTE_MAX) if bits.size else None
    data = (bits[s].view(np.uint8) if palette_bits is None else
            np.searchsorted(palette_bits, bits[s]).astype(np.uint8) for s in chunks)
    block = {"dtype": FLOAT_DTYPE, "shape": list(arr.shape), "codec": CODEC}
    if palette_bits is not None:
        block.update(codec=PALETTE_CODEC, palette=palette_bits.view(FLOAT_DTYPE).tolist())
    # one stream deflated chunk by chunk: the bytes of zlib.compress(all data, 1)
    deflater = zlib.compressobj(1)
    block["b64"] = base64.b64encode(b"".join(
        [*map(deflater.compress, data), deflater.flush()])).decode("ascii")
    return block


def integer_block(arr: np.ndarray) -> dict:
    """An integer array (sign matrix entries, a system side, ``pair_group``) of
    entries in {0, 1} as a bit block, its ``np.packbits`` bytes before zlib; of
    entries in [-127, 127] as a plain int8 block, one byte an entry before zlib,
    without a copy of an int8 ``arr``; any other array as a float block."""
    if arr.dtype.kind not in "iu" or _peak(arr) > 127:
        return _float_block(arr)
    bits = arr.min(initial=0) >= 0 and arr.max(initial=0) <= 1
    data = np.packbits(arr) if bits else np.ascontiguousarray(arr, dtype=np.int8)
    return {"dtype": INT8_DTYPE, "shape": list(arr.shape), "codec": BITS_CODEC if bits else CODEC,
            "b64": base64.b64encode(zlib.compress(data, 1)).decode("ascii")}


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


def _decoded(value, name: str):
    """A float or int8 block as an array (a palette or bit block decoded); any
    other value is returned as it is."""
    if not isinstance(value, dict):
        return value
    dtype = value.get("dtype")
    if dtype not in (FLOAT_DTYPE, INT8_DTYPE):
        raise DocumentError(f"field {name!r} has dtype {dtype!r}, "
                            f"expected {FLOAT_DTYPE!r} or {INT8_DTYPE!r}")
    shape = value.get("shape")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DocumentError(f"field {name!r} has shape {shape!r}, "
                            "expected a list of non-negative integers")
    codec = value.get("codec")
    codecs = (PALETTE_CODEC, CODEC, None) if dtype == FLOAT_DTYPE else (BITS_CODEC, CODEC, None)
    if codec not in codecs:
        raise DocumentError(f"field {name!r} has codec {codec!r}, expected one of {codecs}")
    if codec == PALETTE_CODEC:
        palette = _palette_field(value, name)
    elif "palette" in value:
        raise DocumentError(f"field {name!r} has a palette but codec {codec!r}")
    try:
        raw = base64.b64decode(value.get("b64"), validate=True)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field {name!r} has no valid base64 'b64': {exc}") from exc
    count = math.prod(shape)
    need = (-(-count // 8) if codec == BITS_CODEC else
            (8 if dtype == FLOAT_DTYPE and codec != PALETTE_CODEC else 1) * count)
    if codec is not None:
        raw = _inflated(raw, need, name)
    if len(raw) != need:
        raise DocumentError(f"field {name!r} holds {len(raw)} bytes, shape {shape} needs {need}")
    if codec == BITS_CODEC:
        if -count % 8 and raw[-1] & ((1 << -count % 8) - 1):
            raise DocumentError(f"field {name!r} has a pad bit set in its last byte")
        return np.unpackbits(np.frombuffer(raw, np.uint8), count=count).view(np.int8).reshape(shape)
    if codec != PALETTE_CODEC:
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    codes = np.frombuffer(raw, dtype=np.uint8)
    if codes.size and codes.max() >= palette.size:
        raise DocumentError(f"field {name!r} has code {codes.max()}, "
                            f"its palette has {palette.size} entries")
    # Indexing, not np.take: np.take would copy the codes to intp first
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
    """Field ``name`` as an array, from a block or a nested list.  A ragged or
    non-finite list, or one with a leaf that is not a JSON ``leaves``, is
    malformed."""
    value = _field(payload, name)
    if isinstance(value, list) and not _leaves_are(value, leaves):
        raise DocumentError(f"field {name!r} has an entry that is not a JSON {leaves}")
    arr = _decoded(value, name)
    try:
        arr = np.asarray(arr, dtype=dtype)
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
    return {"rows": m.rows, "cols": m.cols, "entries": integer_block(m.entries)}


def parse_sign_matrix(doc: dict) -> SignMatrix:
    """``entries`` as a block (int8, or a 1.4 palette-coded float block) or
    nested lists of JSON integers; ``SignMatrix`` checks the values either way."""
    payload = _payload(doc, "sign_matrix")
    read = _array if isinstance(_field(payload, "entries"), dict) else _integers
    m = _build("sign matrix 'entries'", SignMatrix, read(payload, "entries"))
    shape = [_integer(payload, "rows"), _integer(payload, "cols")]
    if list(m.entries.shape) != shape:
        raise DocumentError(f"field 'entries' has shape {list(m.entries.shape)}, "
                            f"'rows' and 'cols' declare {shape}")
    return m


# --- embeddings and realizations ------------------------------------------


def embedding_payload(e: ThresholdEmbedding | CompiledEmbedding) -> dict:
    """A compiled embedding's states as its ``system`` (``vector_system_payload``),
    any other's as ``alphas`` and ``betas`` float blocks."""
    payload = {"dimension": e.dimension, "delta0": e.delta0, "delta1": e.delta1}
    if isinstance(e, CompiledEmbedding):
        payload["system"] = vector_system_payload(e.system)
    else:
        payload.update(alphas=_float_block(e.alphas), betas=_float_block(e.betas))
    return payload


def _vectors(payload: dict, name: str) -> np.ndarray:
    """Field ``name`` as a 2-d float array, read as written."""
    vectors = _array(payload, name, np.float64)
    if vectors.ndim != 2:
        raise DocumentError(f"field {name!r} is not a 2-d array: shape {vectors.shape}")
    return vectors


def parse_embedding(doc: dict) -> ThresholdEmbedding | CompiledEmbedding:
    """A ``CompiledEmbedding`` of the ``system`` ``doc`` holds, else a
    ``ThresholdEmbedding`` of its ``alphas`` and ``betas``, which unit-checks
    each row once, alphas before betas.  A row off unit norm, or a slice of a
    system above its norm bound, is malformed input, named by its index."""
    payload = _payload(doc, "embedding")
    if "system" in payload:
        system = parse_vector_system(payload["system"])
        return _build("embedding", CompiledEmbedding, system, _scalar(payload, "delta0"),
                      _scalar(payload, "delta1"))
    return _build("embedding", ThresholdEmbedding, _vectors(payload, "alphas"),
                  _vectors(payload, "betas"), _scalar(payload, "delta0"),
                  _scalar(payload, "delta1"))


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
    """The one writer of a vector system, an embedding's ``system``: each side
    an ``integer_block``."""
    return {"norm_bound": v.norm_bound, "a": integer_block(v.a), "b": integer_block(v.b)}


def parse_vector_system(system) -> VectorSystem:
    """The one reader of a vector system, an embedding's ``system`` object: each
    side in the dtype it was written in, which ``VectorSystem`` keeps if integer
    and casts to float64 otherwise."""
    if not isinstance(system, dict):
        raise DocumentError("field 'system' is not an object")
    a, b = (_array(system, side) for side in "ab")
    return _build("vector system", VectorSystem, a, b, _scalar(system, "norm_bound"))


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
