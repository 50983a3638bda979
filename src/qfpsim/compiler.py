"""Compilation of classical one-way / SMP protocols into vector systems,
assembly of vector systems into unit fingerprint states, and the classical
shared-randomness projection estimator."""

from __future__ import annotations

import numpy as np

# projections stays imported here: perfbench's traced pass wraps it from
# sys.modules, where only this module's import puts it.
from . import projections
from ._record import Record
from .embeddings import (
    CompiledEmbedding,
    SignMatrix,
    ThresholdEmbedding,
    VectorSystem,
    _entries_in,
    _frozen_array,
    verify_threshold_embedding,
)
from .linalg import CHUNK, dot_allowance

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
    """Classical one-way protocol: Bob's decision ``bob_accept[m_a, y, r]``, a read-only
    view of a copy held in the (|R|, |Y|, 2^c) order of the system it compiles to."""

    bob_accept: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        acc = np.asarray(self.bob_accept)
        if (acc.ndim != 3 or acc.shape[0] != 1 << self.c or acc.shape[2] != self.num_rand
                or not _entries_in(acc, (0, 1))):
            raise ValueError("bob_accept must be a 2^c x |Y| x |R| 0/1 table")
        table = acc.transpose(2, 1, 0).astype(np.int8, order="C")
        table.setflags(write=False)
        object.__setattr__(self, "bob_accept", table.transpose(2, 1, 0))  # not made contiguous


def _gathered(table: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """``table[messages]``, C-contiguous, by ``np.take``, which gathers several
    times faster than fancy indexing but copies its index to intp: it is taken
    CHUNK bytes of intp at a time.  Messages are checked to lie in [2^c], so
    mode "clip" clips none; mode "raise" would buffer each block."""
    out = np.empty(messages.shape + table.shape[1:], table.dtype)
    step = max(1, CHUNK // 8 // messages.shape[1])  # a table has at least one input
    for s in range(0, len(messages), step):
        np.take(table, messages[s:s + step], axis=0, out=out[s:s + step], mode="clip")
    return out


def compile_one_way(p: OneWayProtocol | ClassicalSMPProtocol) -> VectorSystem:
    """Indicator-vector compilation: a_r(x) is the one-hot of Alice's message,
    b_r(y) the indicator set of the messages Bob accepts, both in
    {0,1}^(2^c), held as int8.  An SMP protocol compiles as its one-way
    form."""
    dim = 1 << p.c
    # each side built C-contiguous as (|R|, count, 2^c), which VectorSystem holds uncopied
    a = _gathered(np.eye(dim, dtype=np.int8), p.alice_messages.T)
    b = (_gathered(p.accept.T, p.bob_messages.T) if isinstance(p, ClassicalSMPProtocol)
         else p.bob_accept.transpose(2, 1, 0))  # a one-way table is held in this order
    return VectorSystem(a, b, float(np.sqrt(dim)))


def compile_smp(p: ClassicalSMPProtocol) -> VectorSystem:
    """``compile_one_way``, under the name ``perfbench`` calls."""
    return compile_one_way(p)


def assemble_shared_randomness_states(v: VectorSystem, m: SignMatrix) -> CompiledEmbedding:
    """The states of Yao's simulation: superposing all junk-padded per-r
    states into block vectors on |R| (dim+2) coordinates gives
    <alpha_x, beta_y> = P(x,y) / L^2 exactly.  They are held as ``v`` itself,
    padded only when read, with delta0 and delta1 the exact extremal values
    of (P/L^2)^2 over the f=0 and f=1 pairs of M: the worst sides the
    verifier reports for ``v`` at the widest thresholds, from its one walk.
    A delta1 above 1 by at most ``dot_allowance(dim, squared=True)`` is
    rounding (L^2 may round below sum of squares) and is clipped to 1.
    Errors out when the system does not separate the two sides."""
    report = verify_threshold_embedding(CompiledEmbedding(v, 0.0, 1.0), m)
    delta0, delta1 = report.worst_zero_side, report.worst_one_side
    if delta1 <= 1.0 + dot_allowance(v.dim, squared=True):
        delta1 = min(delta1, 1.0)
    if delta0 >= delta1:
        raise ValueError(f"protocol does not separate f=0 from f=1 pairs "
                         f"(delta0={delta0} >= delta1={delta1})")
    return CompiledEmbedding(v, delta0, delta1)


def classical_projection_protocol(
    e: ThresholdEmbedding | CompiledEmbedding,
    pair: tuple[int, int],
    k: int,
    reps: int,
    precision_bits: int,
    seed,
) -> float:
    """Classical SMP estimator of <alpha_x, beta_y> via shared random maps.

    Per repetition both states are projected with one shared seeded map of
    k x dim standard normals (``_rng.normals``) scaled by 1/sqrt(k), every
    coordinate is quantized to ``precision_bits`` symmetric fixed-point bits
    on [-QUANT_RANGE, QUANT_RANGE] (round to nearest), and the inner product
    of the quantized images is taken; the mean over repetitions is returned.
    The unquantized estimator is unbiased.  The maps are drawn and applied
    one block of repetitions at a time, whose stream bytes (16 an entry) take
    at most ``CHUNK`` unless one repetition takes more: the estimate is the
    same at any block size.
    """
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be >= 1")
    if precision_bits < 2:
        raise ValueError("precision_bits must be >= 2")
    from ._rng import generator, normals  # only this estimator draws; compiling loads no RNG
    if isinstance(e, CompiledEmbedding):  # pads the two rows it reads, not both sides
        alpha, beta = (e.system._states(side, [i])[0] for side, i in enumerate(pair))
    else:
        alpha, beta = e.alphas[pair[0]], e.betas[pair[1]]
    rng = generator(seed)
    levels = (1 << (precision_bits - 1)) - 1
    scale = levels / QUANT_RANGE
    products = np.empty(reps)  # each repetition's inner product
    step = max(1, CHUNK // (16 * k * e.dimension))
    for start in range(0, reps, step):
        count = min(step, reps - start)
        maps = normals(rng, count * k * e.dimension).reshape(count, k, e.dimension)
        maps /= np.sqrt(k)
        qu, qv = (np.clip(np.rint((maps @ x) * scale), -levels, levels) / scale
                  for x in (alpha, beta))
        products[start:start + count] = (qu * qv).sum(axis=1)
    return float(np.mean(products))
