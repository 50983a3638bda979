"""Threshold embeddings, margin realizations, their verifiers, and the exact
conversions between the two representations (both directions).

Each side of an embedding is a float64 array or ``_CodedRows``, palette-coded
rows as ``compiler.assemble_shared_randomness_states`` builds them and
``io.parse_embedding`` reads them, which the unit check decodes one block of
rows at a time.  The verifier multiplies two coded sides from exact counts of
their codes on shared columns, without decoding them."""

from __future__ import annotations

import numpy as np

from ._record import Record
from .linalg import CHUNK, dot_allowance, unit_allowance

MIN_GAP = 1e-6  # the smallest threshold gap a sketch accepts
MAX_TENSOR_DIM = 64


def _require_unit_rows(name: str, rows, bound: float | None = None) -> None:
    """Refuse the first row of ``rows`` (an array of rows or ``_CodedRows``)
    whose float64 norm is off 1, or above ``bound``, by more than
    ``unit_allowance`` (times ``bound``), named by its index in ``name``."""
    scale = 1.0 if bound is None else bound
    tol = scale * unit_allowance(rows.shape[-1])
    for s in _row_blocks(rows.shape[0], int(np.prod(rows.shape[1:]))):
        block = rows[s]
        off = np.einsum("...d,...d->...", block, block, dtype=np.float64)
        np.sqrt(off, out=off)
        off -= scale  # in place; exact near scale (Sterbenz), as is off + scale
        ok = (np.abs(off) if bound is None else off) <= tol  # a NaN norm fails too
        if not ok.all():
            i = np.unravel_index(int(np.argmin(ok)), ok.shape)
            at, norm = f"{name}[{', '.join(map(str, (s.start + i[0], *i[1:])))}]", off[i] + scale
            raise ValueError(f"{at} is not a unit vector (norm {norm})" if bound is None
                             else f"{at} norm {norm} exceeds the bound {bound}")
        del block, off, ok  # so the next block's arrays replace them: the peak is one block


PALETTE_MAX = 256  # the values a uint8 code tells apart


class _CodedRows:
    """A 2-d float64 array held as ``palette[codes]``, one uint8 code per
    entry, whose rows are decoded a slice at a time: 1 byte an entry where
    the decoded rows take 8.  The palette and the codes are read-only, and
    every read decodes into a new array."""

    def __init__(self, palette: np.ndarray, codes: np.ndarray):
        _frozen_array(self, "palette", palette)
        _frozen_array(self, "codes", codes)
        self.shape = self.codes.shape

    def __array__(self, dtype=None, copy=None):
        # Indexing, not np.take: np.take would copy the codes to intp first.
        # A 1-d index: a 2-d one takes ~0.15 MiB more peak RSS.
        return np.asarray(self.palette[self.codes.reshape(-1)].reshape(self.shape), dtype=dtype)

    @property
    def nbytes(self) -> int:
        """The bytes held: the palette and the codes, not the decoded rows."""
        return self.palette.nbytes + self.codes.nbytes

    def __getitem__(self, rows: slice | int) -> np.ndarray:
        return self.palette[self.codes[rows]]


def _entries_in(arr: np.ndarray, values: tuple[int, ...]) -> bool:
    """Whether every entry of ``arr`` equals one of ``values``.  Compared in
    ``arr``'s own dtype: ``np.isin`` would first copy ``arr`` to int64."""
    ok = arr == values[0]
    for value in values[1:]:
        ok |= arr == value
    return bool(ok.all())


def _frozen_array(obj, field: str, arr: np.ndarray) -> None:
    """Hold ``arr`` read-only as ``obj.field``: a C-contiguous ``arr`` itself, so the
    caller's array turns read-only (not a view's base), else a copy; pass a copy to keep it."""
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)


class SignMatrix(Record):
    """A {-1, 0, +1} matrix: +1 for f=0, -1 for f=1, 0 for promise-excluded pairs."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sign matrix must be 2-d and nonempty, got shape {arr.shape}")
        if not _entries_in(arr, (-1, 0, 1)):
            raise ValueError("sign matrix entries must be -1, 0 or +1")
        if not np.any(arr):
            raise ValueError("sign matrix must have at least one nonzero entry")
        _frozen_array(self, "entries", arr.astype(np.int8))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def dense(self) -> np.ndarray:
        return self.entries.astype(np.float64)


class _UnitPair(Record):
    """Unit row vectors alpha_x and beta_y in one common dimension.  Each side
    is a float64 array, or ``_CodedRows`` held as they are; every row is
    unit-checked once, one block of rows at a time, alphas before betas."""

    alphas: np.ndarray | _CodedRows
    betas: np.ndarray | _CodedRows

    def __post_init__(self):
        a, b = (v if isinstance(v, _CodedRows) else np.asarray(v, dtype=np.float64)
                for v in (self.alphas, self.betas))
        if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("alphas and betas must be 2-d with a common dimension")
        for name, rows in (("alphas", a), ("betas", b)):
            _require_unit_rows(name, rows)
            if not isinstance(rows, _CodedRows):  # a _CodedRows side is already read-only
                _frozen_array(self, name, rows)

    @property
    def dimension(self) -> int:
        return self.alphas.shape[1]


class ThresholdEmbedding(_UnitPair):
    """Unit vectors alpha_x, beta_y with squared-inner-product thresholds
    delta0 (upper bound on f=0 pairs) < delta1 (lower bound on f=1 pairs)."""

    delta0: float
    delta1: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.delta0 < self.delta1 <= 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 <= delta0 < delta1 <= 1, got ({self.delta0}, {self.delta1})"
            )


class Realization(_UnitPair):
    """Unit vectors with signed inner products >= gamma on f=0 pairs and
    <= -gamma on f=1 pairs."""

    gamma: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"margin must lie in (0, 1], got {self.gamma}")


class EmbeddingReport(Record):
    valid: bool
    worst_zero_side: float  # max squared inner product over f=0 pairs
    worst_one_side: float  # min squared inner product over f=1 pairs
    worst_zero_pair: tuple[int, int] | None
    worst_one_pair: tuple[int, int] | None


class RealizationReport(Record):
    valid: bool
    achieved_margin: float
    worst_pair: tuple[int, int] | None


def _check_counts(alphas, betas, m: SignMatrix) -> None:
    if alphas.shape[0] != m.rows or betas.shape[0] != m.cols:
        raise ValueError(
            f"index counts ({alphas.shape[0]}, {betas.shape[0]}) do not match the "
            f"{m.rows}x{m.cols} sign matrix"
        )


def _worst_pair(
    values: np.ndarray, mask: np.ndarray, largest: bool = False
) -> tuple[float, tuple[int, int]] | None:
    """The smallest (or largest) masked entry of ``values`` as (value, (x, y)),
    ties going to the first in row-major order; None for an empty mask."""
    if not mask.any():
        return None
    pick, fill = (np.argmax, -np.inf) if largest else (np.argmin, np.inf)
    pair = divmod(int(pick(np.where(mask, values, fill))), values.shape[1])
    return float(values[pair]), pair


def _row_blocks(count: int, width: int):
    """Slices cutting ``count`` rows of ``width`` entries into blocks of <= ``CHUNK`` entries."""
    step = max(1, CHUNK // max(1, width))
    return (slice(x, x + step) for x in range(0, count, step))


def _worst_sides(rows, m: SignMatrix):
    """The largest squared inner product over the f=0 pairs of M (0.0 when
    there are none) and the smallest over its f=1 pairs (1.0 when none), each
    as (value, pair), ties going to the first pair in row-major order.
    ``rows(s)`` returns the rows ``s`` of the squared matrix; it is asked for
    one block of at most ``CHUNK`` entries at a time."""
    worst = [None, None]
    for s in _row_blocks(m.rows, m.cols):
        block, signs = rows(s), m.entries[s]
        for side, (sign, pick) in enumerate(((1, np.argmax), (-1, np.argmin))):
            found = _worst_pair(block, signs == sign, largest=sign == 1)
            # pick keeps the earlier block on a tie, as it keeps the first entry
            if found and (worst[side] is None or pick([worst[side][0], found[0]]) == 1):
                worst[side] = found[0], (found[1][0] + s.start, found[1][1])
    return worst[0] or (0.0, None), worst[1] or (1.0, None)


def _count_terms(a, b) -> list | None:
    """The count path's terms: for each pair of nonzero codes, i of ``a`` and j
    of ``b``, that share columns, in row-major order, (i, pa[i] * pb[j], those
    columns, the bool indicator of j on them in every row of ``b``).  Which
    codes occur in which columns is read in one pass over each side's codes,
    ``CHUNK`` entries at a time.  None unless both sides are ``_CodedRows``
    sharing at most D (pair, column) entries, D < 2^24: past D, counting would
    multiply more columns than the decoded product does."""
    if not (isinstance(a, _CodedRows) and isinstance(b, _CodedRows)):
        return None
    found = []
    for r in (a, b):
        seen = np.zeros((r.shape[1], r.palette.size), bool)  # seen[c, k]: code k in column c
        for s in _row_blocks(*r.shape):
            seen.reshape(-1)[r.codes[s] + np.arange(0, seen.size, r.palette.size)] = True
        found.append((codes := np.flatnonzero(r.palette), seen[:, codes].T))
    (ia, in_a), (ib, in_b) = found
    if not in_a.sum(0) @ in_b.sum(0) <= a.shape[1] < 1 << 24:
        return None
    return [(ia[i], a.palette[ia[i]] * b.palette[ib[j]], cols := np.flatnonzero(in_a[i] & in_b[j]),
             b.codes[:, cols] == ib[j]) for i, j in zip(*np.nonzero(in_a @ in_b.T))]


def verify_threshold_embedding(e: ThresholdEmbedding, m: SignMatrix,
                               out: np.ndarray | None = None) -> EmbeddingReport:
    """Check the threshold inequalities on every non-promise pair of M, from
    (e.alphas @ e.betas.T) ** 2 formed one block of rows at a time, each
    block one tile of betas at a time.  A side may pass its threshold by
    ``dot_allowance(dimension, squared=True)``.  An (m.rows, m.cols) array
    ``out`` receives each block.  Sides with ``_count_terms`` are not decoded:
    a product sums, over P code pairs, pa[i] * pb[j] times the count of columns
    coded i and j, an exact float32 product of 0/1 indicators (partial sums
    are integers below 2^24), so equal counts give equal products.  A term
    rounds in pa[i] * pb[j], and in its multiple if its pair takes k >= 2 of
    the <= D (pair, column) entries (then P + 1 <= D); the sum rounds P - 1
    times.  So no term meets more than D roundings, the D u that
    ``dot_allowance(D)`` grants a D-term sum: a product stays within it, and
    its square within ``dot_allowance(D, squared=True)``, as decoded ones do."""
    _check_counts(e.alphas, e.betas, m)
    tiles = list(_row_blocks(m.cols, m.cols))
    terms = _count_terms(e.alphas, e.betas)

    def squared_rows(s: slice) -> np.ndarray:
        block = np.zeros(m.entries[s].shape)
        if terms is None:
            alphas = e.alphas[s]
            for t in tiles:
                np.matmul(alphas, e.betas[t].T, out=block[:, t])
        for i, w, cols, beta in terms or ():
            alpha = (e.alphas.codes[s][:, cols] == i).astype(np.float32)
            for t in tiles:
                block[:, t] += w * (alpha @ beta[t].T.astype(np.float32))
        block **= 2  # in place: the same square as ** 2, without a second block
        if out is not None:
            out[s] = block
        return block

    (worst_zero, zero_pair), (worst_one, one_pair) = _worst_sides(squared_rows, m)
    tol = dot_allowance(e.dimension, squared=True)
    valid = worst_zero <= e.delta0 + tol and worst_one >= e.delta1 - tol
    return EmbeddingReport(valid, worst_zero, worst_one, zero_pair, one_pair)


def verify_realization(r: Realization, m: SignMatrix) -> RealizationReport:
    """Check the signed margin on every non-promise pair of M, to within
    ``dot_allowance`` of the dimension."""
    _check_counts(r.alphas, r.betas, m)
    achieved, pair = _worst_pair(m.dense() * (r.alphas @ r.betas.T), m.entries != 0)
    return RealizationReport(achieved >= r.gamma - dot_allowance(r.dimension), achieved, pair)


def embed_to_realization(e: ThresholdEmbedding) -> Realization:
    """Convert a threshold embedding into a (d^2+1)-dimensional realization.

    With a = (delta1+delta0)/(2+delta1+delta0) the new vectors are
    (sqrt(a), +-sqrt(1-a) v (x) v), giving margin
    (delta1-delta0)/(2+delta1+delta0).
    """
    d = e.dimension
    if d > MAX_TENSOR_DIM:
        raise ValueError(f"input dimension {d} exceeds the tensor-product cap {MAX_TENSOR_DIM}")
    a = (e.delta1 + e.delta0) / (2.0 + e.delta1 + e.delta0)
    gamma = (e.delta1 - e.delta0) / (2.0 + e.delta1 + e.delta0)

    def lift(vectors: np.ndarray, sign: float) -> np.ndarray:
        tensors = np.einsum("nd,ne->nde", vectors, vectors).reshape(vectors.shape[0], d * d)
        head = np.full((vectors.shape[0], 1), np.sqrt(a))
        return np.hstack([head, sign * np.sqrt(1.0 - a) * tensors])

    return Realization(lift(e.alphas, 1.0), lift(e.betas, -1.0), gamma)


def realization_to_embedding(r: Realization) -> ThresholdEmbedding:
    """Convert a margin-gamma realization into a (d+1)-dimensional threshold
    embedding with delta0 = (1-gamma)^2/4 and delta1 = (1+gamma)^2/4."""
    ones = np.ones((r.alphas.shape[0], 1))
    alphas = np.hstack([ones, r.alphas]) / np.sqrt(2.0)
    ones = np.ones((r.betas.shape[0], 1))
    betas = np.hstack([ones, -r.betas]) / np.sqrt(2.0)
    delta0 = (1.0 - r.gamma) ** 2 / 4.0
    delta1 = (1.0 + r.gamma) ** 2 / 4.0
    return ThresholdEmbedding(alphas, betas, delta0, delta1)
