"""Compilation of classical one-way / SMP protocols into vector systems,
assembly of vector systems into unit fingerprint states, and the classical
shared-randomness projection estimator."""

from __future__ import annotations

import numpy as np

# projections stays imported here: perfbench's traced pass wraps it from
# sys.modules, where only this module's import puts it.  Likewise
# verify_threshold_embedding, whose binding here perfbench's self-test looks up.
from . import projections
from ._record import Record
from .embeddings import (
    PALETTE_MAX,
    SignMatrix,
    ThresholdEmbedding,
    _entries_in,
    _CodedRows,
    _frozen_array,
    _require_unit_rows,
    _row_blocks,
    _worst_sides,
    verify_threshold_embedding,
)
from .linalg import dot_allowance

QUANT_RANGE = 2.0  # symmetric fixed-point range for projected coordinates


def _integers(name: str, values) -> np.ndarray:
    """``values`` as a new integer array: an integer array copied, a bool one as
    int8 (a bool index would mask, not index), integral floats as int64; an
    entry that is not an integer is refused, not truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.copy()
    if arr.dtype.kind == "b":
        return arr.astype(np.int8)
    if arr.dtype.kind == "f" and np.all(np.abs(arr) < 2.0**63) and np.all(arr == np.trunc(arr)):
        return arr.astype(np.int64)
    raise ValueError(f"{name} has an entry that is not an integer")


class _Protocol(Record):
    """Shared randomness ``rand_strings`` and Alice's messages as a truth table
    ``alice_messages[x, r]`` in [2^c]."""

    n: int
    c: int
    rand_strings: tuple[int, ...]
    alice_messages: np.ndarray

    def __post_init__(self):
        rand = _integers("rand_strings", self.rand_strings)
        if rand.ndim != 1 or rand.size < 1:
            raise ValueError("the shared-randomness set must be a nonempty list")
        object.__setattr__(self, "rand_strings", tuple(int(r) for r in rand))
        self._set_messages("alice_messages")

    def _set_messages(self, name: str) -> None:
        """Hold field ``name``, a truth table of messages in [2^c] with one
        column per random string, as a checked read-only copy."""
        arr = _integers(name, getattr(self, name))
        if arr.ndim != 2 or arr.shape[1] != self.num_rand:
            raise ValueError(f"{name} must be a 2-d truth table (inputs x random strings)")
        if arr.min() < 0 or arr.max() >= (1 << self.c):
            raise ValueError(f"{name} contains a message outside [0, 2^{self.c})")
        _frozen_array(self, name, arr)

    @property
    def num_rand(self) -> int:
        return len(self.rand_strings)


class ClassicalSMPProtocol(_Protocol):
    """Classical SMP protocol: Bob's messages ``bob_messages[y, r]`` in [2^c]
    and a referee predicate ``accept[m_a, m_b]``."""

    bob_messages: np.ndarray
    accept: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self._set_messages("bob_messages")
        acc = np.asarray(self.accept)
        if acc.shape != (1 << self.c, 1 << self.c) or not _entries_in(acc, (0, 1)):
            raise ValueError("accept must be a 2^c x 2^c 0/1 table")
        _frozen_array(self, "accept", acc.astype(np.int8))

    @property
    def bob_accept(self) -> np.ndarray:
        """The one-way form: Bob accepts m_a on (y, r) iff
        accept[m_a, bob_messages[y, r]]."""
        return self.accept[:, self.bob_messages]


class OneWayProtocol(_Protocol):
    """Classical one-way protocol: Bob's decision ``bob_accept[m_a, y, r]``."""

    bob_accept: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        acc = np.asarray(self.bob_accept)
        if (acc.ndim != 3 or acc.shape[0] != 1 << self.c or acc.shape[2] != self.num_rand
                or not _entries_in(acc, (0, 1))):
            raise ValueError("bob_accept must be a 2^c x |Y| x |R| 0/1 table")
        _frozen_array(self, "bob_accept", acc.astype(np.int8))


class VectorSystem(Record):
    """Per-random-string vectors a_r(x), b_r(y) with a common norm bound L.

    The derived acceptance matrix is P(x,y) = (1/|R|) sum_r <a_r(x), b_r(y)>.
    Integer arrays (a compiled protocol's int8 indicators) are held exactly;
    others become float64.  Every reader accumulates in float64, or in float32
    where each partial sum is an integer below 2^24, so nothing wraps or
    rounds and an integer system reads exactly as its float64 cast.
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
        if not np.isfinite(big_l * big_l):  # readers square L; big_l**2 would raise OverflowError
            raise ValueError(f"norm bound {self.norm_bound} must have a finite float64 square")
        for name, arr in (("a", a), ("b", b)):
            _require_unit_rows(name, arr.transpose(1, 0, 2), big_l)  # named (input, r)
            _frozen_array(self, name, arr)

    @property
    def num_rand(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[2]

    def acceptance_matrix(self) -> np.ndarray:
        # (|X|, |R| dim) x (|R| dim, |Y|) products, one block of rows at a time, sum
        # over r and d at once.  When max|a| max|b| |R| dim <= 2^24 every partial sum
        # is an integer float32 holds exactly, so an integer system multiplies in it.
        a, b, width = self.a, self.b, self.num_rand * self.dim
        dtype = np.float64
        if a.dtype.kind in "iu" and b.dtype.kind in "iu":
            # from min and max as Python ints: np.abs(int8 -128) wraps to -128
            big_a, big_b = (max(-int(v.min()), int(v.max())) for v in (a, b))
            if big_a * big_b * width <= 1 << 24:
                dtype = np.float32
        bt = _by_input(b, dtype).T
        p = np.empty((a.shape[1], b.shape[1]))
        for s in _row_blocks(a.shape[1], width):
            p[s] = _by_input(a[:, s], dtype) @ bt
        p /= self.num_rand
        return p


def _by_input(arr: np.ndarray, dtype) -> np.ndarray:
    """(|R|, count, k) -> (count, |R| k) in ``dtype``: each input's slices side by side."""
    return np.ascontiguousarray(arr.transpose(1, 0, 2), dtype=dtype).reshape(arr.shape[1], -1)


def compile_one_way(p: OneWayProtocol | ClassicalSMPProtocol) -> VectorSystem:
    """Indicator-vector compilation: a_r(x) is the one-hot of Alice's message,
    b_r(y) the indicator set of the messages Bob accepts, both in
    {0,1}^(2^c), held as int8.  An SMP protocol compiles as its one-way
    form."""
    dim = 1 << p.c
    # each side built C-contiguous as (|R|, count, 2^c), which VectorSystem holds uncopied
    a = np.eye(dim, dtype=np.int8)[p.alice_messages.T]
    b = (p.accept.T[p.bob_messages.T] if isinstance(p, ClassicalSMPProtocol)  # one-way form
         else p.bob_accept.transpose(2, 1, 0))  # a one-way table is copied
    return VectorSystem(a, b, float(np.sqrt(dim)))


def compile_smp(p: ClassicalSMPProtocol) -> VectorSystem:
    """``compile_one_way``, under the name ``perfbench`` calls."""
    return compile_one_way(p)


def _padded(entries, squares, big_l: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The padding rule, the one place it is written: an entry u of a row of
    squared norm S <= big_l^2 becomes (u / big_l) * scale, and the row's junk
    entry (sqrt(big_l^2 - S) / big_l) * scale, so the padded row has norm
    ``scale``."""
    return entries / big_l * scale, np.sqrt(np.maximum(big_l**2 - squares, 0.0)) / big_l * scale


def _junk_pad(rows: np.ndarray, junk: int, big_l: float, scale: float = 1.0) -> np.ndarray:
    """Pad rows (..., dim) of norm <= big_l by ``_padded`` on junk coordinate
    dim + junk of dim+2 (0 for alphas, 1 for betas): at scale 1, unit states
    with <alpha_x, beta_y> = <a_x, b_y> / big_l^2 exactly.  The output is
    allocated once and filled one block of rows at a time, each block cast
    to float64 on its own."""
    dim = rows.shape[-1]
    out = np.zeros(rows.shape[:-1] + (dim + 2,))
    for s in _row_blocks(rows.shape[0], rows[:1].size):
        block = rows[s].astype(np.float64, copy=False)
        out[s, ..., :dim], out[s, ..., dim + junk] = _padded(
            block, np.add.reduce(block * block, axis=-1), big_l, scale)
    return out


def _thresholds(v: VectorSystem, m: SignMatrix) -> tuple[float, float]:
    """delta0 and delta1 of the assembled states: the exact extremal values of
    (P/L^2)^2 over the f=0 and f=1 pairs of M, from the acceptance matrix
    squared in place and searched one block of rows at a time.  A delta1
    above 1 by at most ``dot_allowance(dim, squared=True)`` is rounding (L^2
    may round below sum of squares) and is clipped to 1.  Errors out when the
    system does not separate the two sides."""
    if (v.a.shape[1], v.b.shape[1]) != (m.rows, m.cols):
        raise ValueError(
            f"vector system is {v.a.shape[1]}x{v.b.shape[1]} but the sign matrix is "
            f"{m.rows}x{m.cols}"
        )
    sq = v.acceptance_matrix()
    sq /= v.norm_bound**2
    sq **= 2
    (delta0, _), (delta1, _) = _worst_sides(sq.__getitem__, m)
    if delta1 <= 1.0 + dot_allowance(v.dim, squared=True):
        delta1 = min(delta1, 1.0)
    if delta0 >= delta1:
        raise ValueError(
            f"protocol does not separate f=0 from f=1 pairs (delta0={delta0} >= delta1={delta1})"
        )
    return delta0, delta1


def _side(v: VectorSystem, side: int) -> np.ndarray | _CodedRows:
    """The alphas (side 0, from ``v.a``) or betas (side 1, from ``v.b``) of
    the assembled states, one row per input: block r of a row is slice r
    padded by ``_padded`` at scale 1/sqrt(|R|).  Coded by ``_coded_side``
    where it builds them, else padded in float64 by ``_junk_pad``."""
    coded = _coded_side(v, side)
    if coded is not None:
        return coded
    vectors = (v.a, v.b)[side]
    return _junk_pad(vectors.transpose(1, 0, 2), side, v.norm_bound,
                     1.0 / np.sqrt(v.num_rand)).reshape(vectors.shape[1], -1)


def _coded_side(v: VectorSystem, side: int) -> _CodedRows | None:
    """``_side(v, side)`` of an integer system as ``_CodedRows``, one uint8
    code per entry, built in one pass without a float64 state block.  The
    palette is ``_padded`` of every candidate value: each u in [lo, hi],
    then each S in [0, S_max], then 0.0, the other side's junk entry.  So an
    entry u is coded u - lo and a junk entry hi - lo + 1 + S from its slice's
    exact squared norm S, and the decoded rows are ``_junk_pad``'s to the
    bit.  None for a float system, or when the candidates take more than
    PALETTE_MAX entries: ``_junk_pad`` pads those."""
    vectors = (v.a, v.b)[side]
    if vectors.dtype.kind not in "iu":
        return None
    num_rand, count, dim = vectors.shape
    lo, hi = int(vectors.min()), int(vectors.max())
    s_max = max(-lo, hi) ** 2 * dim  # no slice's S exceeds it
    junk = hi - lo + 1  # the code of a junk entry of S = 0
    zero = junk + s_max + 1  # the code of 0.0, the palette's last entry
    if zero >= PALETTE_MAX:
        return None
    values = _padded(np.arange(lo, hi + 1), np.arange(s_max + 1), v.norm_bound,
                     1.0 / np.sqrt(num_rand))
    codes = np.full((count, num_rand, dim + 2), zero, np.uint8)
    for s in _row_blocks(count, num_rand * (dim + 2)):
        block = vectors[:, s]
        # an unsafe cast only for uint64, and exact: zero < PALETTE_MAX bounds |u| by 15
        codes[s, :, :dim] = np.subtract(block, lo, dtype=np.intp,
                                        casting="unsafe").transpose(1, 0, 2)
        codes[s, :, dim + side] = np.einsum("rxd,rxd->xr", block, block, dtype=np.intp,
                                            casting="unsafe") + junk
    return _CodedRows(np.concatenate([*values, [0.0]]), codes.reshape(count, -1))


def assemble_shared_randomness_states(v: VectorSystem, m: SignMatrix) -> ThresholdEmbedding:
    """Superpose all junk-padded per-r states into block vectors on
    |R| (dim+2) coordinates, so that <alpha_x, beta_y> = P(x,y) / L^2 exactly.
    An integer system's sides whose candidate values fit in PALETTE_MAX
    palette entries are held as ``_CodedRows``, 1 byte an entry, as
    ``compile`` writes them; any other side is a float64 array."""
    delta0, delta1 = _thresholds(v, m)
    return ThresholdEmbedding(_side(v, 0), _side(v, 1), delta0, delta1)


def classical_projection_protocol(
    e: ThresholdEmbedding,
    pair: tuple[int, int],
    k: int,
    reps: int,
    precision_bits: int,
    seed,
) -> float:
    """Classical SMP estimator of <alpha_x, beta_y> via shared random maps.

    Per repetition both states are projected with one shared seeded Gaussian
    map to k dimensions, every coordinate is quantized to ``precision_bits``
    symmetric fixed-point bits on [-QUANT_RANGE, QUANT_RANGE] (round to
    nearest), and the inner product of the quantized images is taken; the
    mean over repetitions is returned.  The unquantized estimator is unbiased.
    """
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be >= 1")
    if precision_bits < 2:
        raise ValueError("precision_bits must be >= 2")
    from ._rng import generator  # only this estimator draws; compiling loads no RNG
    x, y = pair
    alpha = e.alphas[x]
    beta = e.betas[y]
    rng = generator(seed)
    maps = rng.standard_normal((reps, k, e.dimension)) / np.sqrt(k)
    u = maps @ alpha
    v = maps @ beta
    levels = (1 << (precision_bits - 1)) - 1
    scale = levels / QUANT_RANGE
    qu = np.clip(np.rint(u * scale), -levels, levels) / scale
    qv = np.clip(np.rint(v * scale), -levels, levels) / scale
    return float(np.mean((qu * qv).sum(axis=1)))
