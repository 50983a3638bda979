"""Threshold embeddings, margin realizations, the vector systems a compiled
protocol gives, their verifiers, and the exact conversions between the two
representations (both directions).

A ``ThresholdEmbedding`` holds its states as float64 arrays.  A
``CompiledEmbedding`` holds the ``VectorSystem`` whose junk-padded slices
are its states, as ``compiler.assemble_shared_randomness_states`` builds it
and ``io.parse_embedding`` reads it: the verifier squares the system's own
acceptance products, exact for a compiled int8 system, and the float64
states are formed only when a caller reads ``alphas`` or ``betas``."""

from __future__ import annotations

import numpy as np

from ._record import Record
from .linalg import CHUNK, dot_allowance, unit_allowance

MAX_TENSOR_DIM = 64
TINY = np.finfo(np.float64).tiny  # the smallest normal float64


def _peak(arr: np.ndarray) -> int:
    """The largest |entry| of an integer array (0 when empty), from its min and
    max as Python ints: np.abs(int8 -128) wraps to -128."""
    return max(-int(arr.min(initial=0)), int(arr.max(initial=0)))


def _require_unit_rows(name: str, rows: np.ndarray, bound: float | None = None) -> None:
    """Refuse the first row of ``rows`` whose norm is off 1, or above
    ``bound``, by more than ``unit_allowance`` (times ``bound``), named by its
    index in ``name``.  An integer array's squared norms are summed exactly,
    in the narrowest signed integer type that holds peak^2 dim, if int64
    does; others' in float64."""
    scale = 1.0 if bound is None else bound
    tol = scale * unit_allowance(rows.shape[-1])
    sums = (np.min_scalar_type(-1 - _peak(rows) ** 2 * rows.shape[-1])  # object past int64
            if rows.dtype.kind in "iu" else np.dtype(np.float64))
    for s in _row_blocks(rows.shape[0], int(np.prod(rows.shape[1:]))):
        block = rows[s]
        if sums.kind == "i":
            off = np.sqrt(np.vecdot(block, block, dtype=sums, casting="unsafe"), dtype=np.float64)
        else:
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
    """Unit row vectors alpha_x and beta_y in one common dimension, each side
    a float64 array; every row is unit-checked once, one block of rows at a
    time, alphas before betas."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        a, b = (np.asarray(v, dtype=np.float64) for v in (self.alphas, self.betas))
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("alphas and betas must be 2-d with a common dimension")
        for name, rows in (("alphas", a), ("betas", b)):
            _require_unit_rows(name, rows)
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
        _require_thresholds(self.delta0, self.delta1)


def _require_thresholds(delta0: float, delta1: float) -> None:
    if not (0.0 <= delta0 < delta1 <= 1.0):
        raise ValueError(f"thresholds must satisfy 0 <= delta0 < delta1 <= 1, "
                         f"got ({delta0}, {delta1})")


class Realization(_UnitPair):
    """Unit vectors with signed inner products >= gamma on f=0 pairs and
    <= -gamma on f=1 pairs."""

    gamma: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"margin must lie in (0, 1], got {self.gamma}")


class VectorSystem(Record):
    """Per-random-string vectors a_r(x), b_r(y) with a common norm bound L.

    The derived acceptance matrix is P(x,y) = (1/|R|) sum_r <a_r(x), b_r(y)>.
    Integer arrays (a compiled protocol's int8 indicators) are held exactly;
    others become float64.  Every reader accumulates in float64, in int64, or
    in float32 where each partial sum is an integer below 2^24, so nothing
    wraps or rounds and an integer system reads exactly as its float64 cast.
    L^2 must be a finite float64 of at least the smallest normal one, so
    that ``_padded`` makes every slice a unit vector.
    """

    a: np.ndarray  # (|R|, |X|, dim)
    b: np.ndarray  # (|R|, |Y|, dim)
    norm_bound: float

    def __post_init__(self):
        a, b = (np.asarray(v) for v in (self.a, self.b))
        a, b = (v if v.dtype.kind in "iu" else v.astype(np.float64, copy=False) for v in (a, b))
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
            raise ValueError("a and b must be (|R|, count, dim) arrays sharing |R| and dim")
        if self.norm_bound <= 0:
            raise ValueError("norm bound must be positive")
        big_l = float(self.norm_bound)
        # readers square L; big_l**2 would raise OverflowError, and a NaN fails the test
        if not TINY <= big_l * big_l < np.inf:
            raise ValueError(f"norm bound {self.norm_bound} must have a finite float64 "
                             f"square of at least {TINY}")
        for name, arr in (("a", a), ("b", b)):
            _require_unit_rows(name, arr.transpose(1, 0, 2), big_l)  # named (input, r)
            _frozen_array(self, name, arr)

    @property
    def num_rand(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[2]

    def _rows(self, squared: bool = False):
        """A function of a slice s of the inputs x that returns rows s of the
        acceptance matrix as float64, or with ``squared`` of (P/L^2)^2, the
        squared inner products of ``_states``, from (|X|, |R| dim) x (|R| dim,
        |Y|) tiles of at most ``CHUNK`` entries a side.  When max|a| max|b| |R|
        dim <= 2^24 every partial sum is an integer float32 holds exactly, so
        an integer system multiplies in it."""
        a, b, width = self.a, self.b, self.num_rand * self.dim
        dtype = np.float64
        if a.dtype.kind in "iu" and b.dtype.kind in "iu" and _peak(a) * _peak(b) * width <= 1 << 24:
            dtype = np.float32

        def by_input(arr):  # (|R|, count, k) -> (count, |R| k): each input's slices side by side
            r, count, k = arr.shape
            items = arr.view(f"V{k * arr.itemsize}") if k else arr  # a slice moves as one item
            return np.ascontiguousarray(items.swapaxes(0, 1)).view(arr.dtype).reshape(count, r * k)

        b = by_input(b)  # in b's own dtype: one byte an entry for int8

        def rows(s: slice) -> np.ndarray:
            a_s = a[:, s]
            p = np.empty((a_s.shape[1], len(b)))
            for t in _row_blocks(len(p), width):
                block = by_input(a_s[:, t]).astype(dtype, copy=False)
                for u in _row_blocks(len(b), width):
                    p[t, u] = block @ b[u].astype(dtype, copy=False).T  # exact in float64
            p /= self.num_rand
            if squared:
                p /= self.norm_bound**2
                p **= 2  # in place: the same square as ** 2, without a second block
            return p

        return rows

    def acceptance_matrix(self) -> np.ndarray:
        return self._rows()(slice(None))

    def _states(self, side: int, rows=slice(None)) -> np.ndarray:
        """The alphas (side 0, from ``a``) or betas (side 1, from ``b``) of the
        states of inputs ``rows``, as new float64 rows filled one block at a
        time: block r of a row is slice r padded by ``_padded`` at scale
        1/sqrt(|R|), on junk coordinate dim + side of dim+2."""
        vectors, dim = (self.a, self.b)[side][:, rows].transpose(1, 0, 2), self.dim
        out = np.zeros(vectors.shape[:2] + (dim + 2,))
        for s in _row_blocks(len(out), vectors[:1].size):
            block = vectors[s].astype(np.float64, copy=False)
            out[s, :, :dim], out[s, :, dim + side] = _padded(
                block, np.add.reduce(block * block, axis=-1), self.norm_bound,
                1.0 / np.sqrt(self.num_rand))
        return out.reshape(len(out), -1)


def _padded(entries, squares, big_l: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The padding rule, the one place it is written: an entry u of a row of
    squared norm S <= big_l^2 becomes (u / big_l) * scale, and the row's junk
    entry (sqrt(big_l^2 - S) / big_l) * scale, so the padded row has norm
    ``scale``."""
    return entries / big_l * scale, np.sqrt(np.maximum(big_l**2 - squares, 0.0)) / big_l * scale


class CompiledEmbedding(Record):
    """A threshold embedding held as the ``VectorSystem`` its states pad: the
    junk-padded slices of each input, side by side, are a unit state on |R|
    (dim+2) coordinates, with <alpha_x, beta_y> = P(x,y) / L^2.  ``alphas``
    and ``betas`` pad them into a new float64 array at each read."""

    system: VectorSystem
    delta0: float
    delta1: float

    def __post_init__(self):
        _require_thresholds(self.delta0, self.delta1)

    @property
    def dimension(self) -> int:
        return self.system.num_rand * (self.system.dim + 2)

    alphas = property(lambda self: self.system._states(0))
    betas = property(lambda self: self.system._states(1))


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


def _check_counts(rows: int, cols: int, m: SignMatrix) -> None:
    if (rows, cols) != (m.rows, m.cols):
        raise ValueError(f"index counts ({rows}, {cols}) do not match the "
                         f"{m.rows}x{m.cols} sign matrix")


def _worst_pair(values: np.ndarray, mask: np.ndarray, largest: bool = False, worst=None,
                start: int = 0) -> tuple[float, tuple[int, int]] | None:
    """The smallest (or largest) masked entry of ``values``, a block of rows
    from ``start``, as (value, (x, y)), unless ``worst`` (one such pair or
    None) is no better: ties go to the first in row-major order, and an
    earlier block's ``worst`` keeps a tie.  None for an empty mask and no ``worst``."""
    if not mask.any():
        return worst
    pick, fill = (np.argmax, -np.inf) if largest else (np.argmin, np.inf)
    x, y = divmod(int(pick(np.where(mask, values, fill))), values.shape[1])
    if worst is not None and pick([worst[0], values[x, y]]) == 0:
        return worst
    return float(values[x, y]), (start + x, y)


def _row_blocks(count: int, width: int):
    """Slices cutting ``count`` rows of ``width`` entries into blocks of <= ``CHUNK`` entries."""
    step = max(1, CHUNK // max(1, width))
    return (slice(x, x + step) for x in range(0, count, step))


def _worst_sides(rows, m: SignMatrix, each=None):
    """The largest squared inner product over the f=0 pairs of M (0.0 when
    there are none) and the smallest over its f=1 pairs (1.0 when none), each
    as (value, pair), ties going to the first pair in row-major order.
    ``rows(s)`` returns the rows ``s`` of the squared matrix; it is asked for
    one block of at most ``CHUNK`` entries at a time, and ``each(s, block)``,
    when given, is called on each block once it has been searched."""
    worst = [None, None]
    for s in _row_blocks(m.rows, m.cols):
        block, signs = rows(s), m.entries[s]
        for side, sign in enumerate((1, -1)):
            worst[side] = _worst_pair(block, signs == sign, sign == 1, worst[side], s.start)
        if each is not None:
            each(s, block)
    return worst[0] or (0.0, None), worst[1] or (1.0, None)


def _squares(e: ThresholdEmbedding | CompiledEmbedding, m: SignMatrix):
    """A function of a slice s of M's rows that returns their squared inner
    products: a compiled embedding's (P/L^2)^2 from its system, which its
    states give exactly in exact arithmetic, else (e.alphas[s] @ e.betas.T) ** 2,
    one tile of betas at a time.  The same s gives the same block to the bit."""
    if isinstance(e, CompiledEmbedding):
        _check_counts(e.system.a.shape[1], e.system.b.shape[1], m)
        return e.system._rows(squared=True)
    _check_counts(e.alphas.shape[0], e.betas.shape[0], m)
    tiles = list(_row_blocks(m.cols, m.cols))

    def squares(s: slice) -> np.ndarray:
        block, alphas = np.empty(m.entries[s].shape), e.alphas[s]
        for t in tiles:
            np.matmul(alphas, e.betas[t].T, out=block[:, t])
        block **= 2  # in place: the same square as ** 2, without a second block
        return block

    return squares


def verify_threshold_embedding(e: ThresholdEmbedding | CompiledEmbedding,
                               m: SignMatrix, each=None) -> EmbeddingReport:
    """Check the threshold inequalities on every non-promise pair of M, from
    the ``_squares`` blocks, one block of rows at a time: the one walk over
    the products, which hands each block to ``each`` (``_worst_sides``).  A
    side may pass its threshold by ``dot_allowance(dimension, squared=True)``."""
    (worst_zero, zero_pair), (worst_one, one_pair) = _worst_sides(_squares(e, m), m, each)
    tol = dot_allowance(e.dimension, squared=True)
    valid = worst_zero <= e.delta0 + tol and worst_one >= e.delta1 - tol
    return EmbeddingReport(valid, worst_zero, worst_one, zero_pair, one_pair)


def verify_realization(r: Realization, m: SignMatrix) -> RealizationReport:
    """Check the signed margin on every non-promise pair of M, to within
    ``dot_allowance`` of the dimension, one block of rows at a time."""
    _check_counts(r.alphas.shape[0], r.betas.shape[0], m)
    worst = None
    for s in _row_blocks(m.rows, m.cols):
        signs = m.entries[s]
        worst = _worst_pair(signs * (r.alphas[s] @ r.betas.T), signs != 0, False, worst, s.start)
    achieved, pair = worst  # SignMatrix holds a nonzero entry
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
