"""Threshold embeddings, margin realizations, their verifiers, and the exact
conversions between the two representations (both directions)."""

from __future__ import annotations

import numpy as np

from ._record import Record
from .linalg import CHUNK, unit_rows

UNIT_TOL = 1e-9
VERIFY_TOL = 1e-9
MIN_GAP = 1e-6  # the smallest threshold gap a reduction or a sketch accepts
MAX_TENSOR_DIM = 64
REDUCTION_RETRIES = 20


def _require_unit_rows(name: str, arr: np.ndarray, start: int = 0) -> None:
    norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
    bad = ~(np.abs(norms - 1.0) <= UNIT_TOL)  # a NaN norm fails too
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(f"{name}[{start + idx}] is not a unit vector (norm {float(norms[idx])})")


def _entries_in(arr: np.ndarray, values: tuple[int, ...]) -> bool:
    """Whether every entry of ``arr`` equals one of ``values``.  Compared in
    ``arr``'s own dtype: ``np.isin`` would first copy ``arr`` to int64."""
    ok = arr == values[0]
    for value in values[1:]:
        ok |= arr == value
    return bool(ok.all())


def _frozen_array(obj, field: str, arr: np.ndarray) -> None:
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

    def zero_pairs(self) -> np.ndarray:
        """Boolean mask of (x, y) with f(x, y) = 0 (entry +1)."""
        return self.entries == 1

    def one_pairs(self) -> np.ndarray:
        """Boolean mask of (x, y) with f(x, y) = 1 (entry -1)."""
        return self.entries == -1

    def dense(self) -> np.ndarray:
        return self.entries.astype(np.float64)


class _UnitPair(Record):
    """Unit row vectors alpha_x and beta_y in one common dimension."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.float64)
        b = np.asarray(self.betas, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("alphas and betas must be 2-d with a common dimension")
        _require_unit_rows("alphas", a)
        _require_unit_rows("betas", b)
        _frozen_array(self, "alphas", a)
        _frozen_array(self, "betas", b)

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


def verify_threshold_embedding(e: ThresholdEmbedding, m: SignMatrix,
                               out: np.ndarray | None = None) -> EmbeddingReport:
    """Check the threshold inequalities on every non-promise pair of M, from
    (e.alphas @ e.betas.T) ** 2 formed from slices of rows of ``e.alphas``, one
    block at a time; an (m.rows, m.cols) array ``out`` receives each block."""
    _check_counts(e.alphas, e.betas, m)

    def squared_rows(s: slice) -> np.ndarray:
        block = e.alphas[s] @ e.betas.T
        block **= 2  # in place: the same square as ** 2, without a second block
        if out is not None:
            out[s] = block
        return block

    (worst_zero, zero_pair), (worst_one, one_pair) = _worst_sides(squared_rows, m)
    valid = worst_zero <= e.delta0 + VERIFY_TOL and worst_one >= e.delta1 - VERIFY_TOL
    return EmbeddingReport(valid, worst_zero, worst_one, zero_pair, one_pair)


def verify_realization(r: Realization, m: SignMatrix) -> RealizationReport:
    """Check the signed margin on every non-promise pair of M."""
    _check_counts(r.alphas, r.betas, m)
    achieved, pair = _worst_pair(m.dense() * (r.alphas @ r.betas.T), m.entries != 0)
    return RealizationReport(achieved >= r.gamma - VERIFY_TOL, achieved, pair)


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


def _jl_reduce(pair: _UnitPair, target: int, seed, rebuild, valid) -> _UnitPair:
    """Project alphas and betas together to ``target`` dimensions with each
    child of ``seed`` in turn; return the first ``rebuild(alphas, betas)`` that
    passes ``valid`` (a ValueError from ``rebuild`` skips the child), or
    ``pair`` itself when it is no wider than ``target``."""
    # imported here (and below) so that commands that do not reduce never load them
    from . import projections
    from ._rng import spawn
    if target >= pair.dimension:
        return pair
    stacked = np.vstack([pair.alphas, pair.betas])
    nx = pair.alphas.shape[0]
    for child in spawn(seed, REDUCTION_RETRIES):
        projected = projections.project_vectors(stacked, target, child)
        try:
            candidate = rebuild(projected[:nx], projected[nx:])
        except ValueError:
            continue
        if valid(candidate):
            return candidate
    raise RuntimeError(f"dimension reduction failed after {REDUCTION_RETRIES} retries")


def reduce_realization_dimension(r: Realization, m: SignMatrix, seed) -> Realization:
    """Random-project a realization to roughly O(n/gamma^2) dimensions at half
    the margin, retrying fresh seeds until the projected arrangement verifies.
    """
    from . import projections
    report = verify_realization(r, m)
    if not report.valid:
        raise ValueError(
            f"input realization does not achieve its claimed margin "
            f"(achieved {report.achieved_margin}, claimed {r.gamma})"
        )
    count = r.alphas.shape[0] + r.betas.shape[0]
    target = projections.jl_dimension(count + 1, r.gamma / 4.0)
    return _jl_reduce(
        r, target, seed,
        lambda a, b: Realization(unit_rows(a), unit_rows(b), r.gamma / 2.0),
        lambda candidate: verify_realization(candidate, m).valid,
    )
