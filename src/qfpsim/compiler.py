"""Compilation of classical one-way / SMP protocols into vector systems,
assembly of vector systems into unit fingerprint states, and the classical
shared-randomness projection estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projections
from ._rng import generator
from .embeddings import (
    SignMatrix,
    ThresholdEmbedding,
    _jl_reduce,
    _worst_sides,
    verify_threshold_embedding,
)

NORM_TOL = 1e-9
MIN_GAP = 1e-6
QUANT_RANGE = 2.0  # symmetric fixed-point range for projected coordinates


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an integer array: an integer array as it is, a bool one as
    int8 (a bool index would mask, not index), integral floats as int64; an
    entry that is not an integer is refused, not truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr
    if arr.dtype.kind == "b":
        return arr.astype(np.int8)
    if arr.dtype.kind == "f" and np.all(np.abs(arr) < 2.0**63) and np.all(arr == np.trunc(arr)):
        return arr.astype(np.int64)
    raise ValueError(f"{name} has an entry that is not an integer")


@dataclass(frozen=True)
class _Protocol:
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
        object.__setattr__(self, "alice_messages",
                           self._messages("alice_messages", self.alice_messages))

    def _messages(self, name: str, table) -> np.ndarray:
        """A truth table of messages in [2^c], one column per random string."""
        arr = _integers(name, table)
        if arr.ndim != 2 or arr.shape[1] != self.num_rand:
            raise ValueError(f"{name} must be a 2-d truth table (inputs x random strings)")
        if arr.min() < 0 or arr.max() >= (1 << self.c):
            raise ValueError(f"{name} contains a message outside [0, 2^{self.c})")
        return arr

    @property
    def num_rand(self) -> int:
        return len(self.rand_strings)


@dataclass(frozen=True)
class ClassicalSMPProtocol(_Protocol):
    """Classical SMP protocol: Bob's messages ``bob_messages[y, r]`` in [2^c]
    and a referee predicate ``accept[m_a, m_b]``."""

    bob_messages: np.ndarray
    accept: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "bob_messages", self._messages("bob_messages", self.bob_messages))
        acc = np.asarray(self.accept)
        if acc.shape != (1 << self.c, 1 << self.c) or not np.isin(acc, (0, 1)).all():
            raise ValueError("accept must be a 2^c x 2^c 0/1 table")
        object.__setattr__(self, "accept", acc.astype(np.int8))

    @property
    def bob_accept(self) -> np.ndarray:
        """The one-way form: Bob accepts m_a on (y, r) iff
        accept[m_a, bob_messages[y, r]]."""
        return self.accept[:, self.bob_messages]


@dataclass(frozen=True)
class OneWayProtocol(_Protocol):
    """Classical one-way protocol: Bob's decision ``bob_accept[m_a, y, r]``."""

    bob_accept: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        acc = np.asarray(self.bob_accept)
        if (acc.ndim != 3 or acc.shape[0] != 1 << self.c or acc.shape[2] != self.num_rand
                or not np.isin(acc, (0, 1)).all()):
            raise ValueError("bob_accept must be a 2^c x |Y| x |R| 0/1 table")
        object.__setattr__(self, "bob_accept", acc.astype(np.int8))


@dataclass(frozen=True)
class VectorSystem:
    """Per-random-string vectors a_r(x), b_r(y) with a common norm bound L.

    The derived acceptance matrix is P(x,y) = (1/|R|) sum_r <a_r(x), b_r(y)>.
    """

    a: np.ndarray  # (|R|, |X|, dim)
    b: np.ndarray  # (|R|, |Y|, dim)
    norm_bound: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
            raise ValueError("a and b must be (|R|, count, dim) arrays sharing |R| and dim")
        if self.norm_bound <= 0:
            raise ValueError("norm bound must be positive")
        for name, arr in (("a", a), ("b", b)):
            worst = float(np.sqrt(np.einsum("rxd,rxd->rx", arr, arr).max()))
            if not worst <= self.norm_bound + NORM_TOL:  # a NaN norm fails too
                raise ValueError(f"{name} vector norm {worst} exceeds the bound {self.norm_bound}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def num_rand(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[2]

    def acceptance_matrix(self) -> np.ndarray:
        # one (|X|, |R| dim) x (|R| dim, |Y|) product sums over r and d at once
        p = _by_input(self.a) @ _by_input(self.b).T
        p /= self.num_rand
        return p


def _by_input(arr: np.ndarray) -> np.ndarray:
    """(|R|, count, k) -> (count, |R| k): each input's slices side by side."""
    return arr.transpose(1, 0, 2).reshape(arr.shape[1], -1)


def compile_one_way(p: OneWayProtocol | ClassicalSMPProtocol) -> VectorSystem:
    """Indicator-vector compilation: a_r(x) is the one-hot of Alice's message,
    b_r(y) the indicator set of the messages Bob accepts, both in
    {0,1}^(2^c).  An SMP protocol compiles through its one-way form."""
    dim = 1 << p.c
    a = np.eye(dim)[p.alice_messages].transpose(1, 0, 2)  # (|R|, |X|, 2^c)
    b = p.bob_accept.astype(np.float64).transpose(2, 1, 0)  # (|R|, |Y|, 2^c)
    return VectorSystem(a, b, float(np.sqrt(dim)))


def compile_smp(p: ClassicalSMPProtocol) -> VectorSystem:
    """``compile_one_way``, under the name ``perfbench`` calls."""
    return compile_one_way(p)


def _junk_pad(rows: np.ndarray, junk: int, big_l: float) -> np.ndarray:
    """Pad rows (..., dim) of norm <= big_l to norm big_l on junk coordinate
    dim + junk of dim+2 (0 for alphas, 1 for betas) and divide by big_l: unit
    states with <alpha_x, beta_y> = <a_x, b_y> / big_l^2 exactly.  The slack
    column is computed, and its squares freed, before the output is
    allocated; the output is then filled in place."""
    slack = np.add.reduce(rows * rows, axis=-1)
    np.subtract(big_l**2, slack, out=slack)
    np.maximum(slack, 0.0, out=slack)
    np.sqrt(slack, out=slack)
    dim = rows.shape[-1]
    out = np.zeros(rows.shape[:-1] + (dim + 2,))
    out[..., :dim] = rows
    out[..., dim + junk] = slack
    out /= big_l
    return out


def assemble_shared_randomness_states(v: VectorSystem, m: SignMatrix) -> ThresholdEmbedding:
    """Superpose all junk-padded per-r states into block vectors on
    |R| (dim+2) coordinates, so that <alpha_x, beta_y> = P(x,y) / L^2 exactly.

    delta0 / delta1 are set to the exact extremal values of (P/L^2)^2 over
    the f=0 and f=1 pairs of the supplied sign matrix; errors out when the
    system does not separate the two sides.

    Allocation order: the acceptance matrix, the thresholds and the
    separation check come first and are dropped.  Then, one side at a time,
    the slack column is computed from the (|X|, |R|, dim) view of ``v.a`` or
    ``v.b``, and only then is that side's (|X|, |R|, dim+2) state block
    allocated and filled in place.  Each block is allocated once, so the peak
    is about the two blocks plus one slack column.
    """
    if (v.a.shape[1], v.b.shape[1]) != (m.rows, m.cols):
        raise ValueError(
            f"vector system is {v.a.shape[1]}x{v.b.shape[1]} but the sign matrix is "
            f"{m.rows}x{m.cols}"
        )
    (delta0, _), (delta1, _) = _worst_sides((v.acceptance_matrix() / v.norm_bound**2) ** 2, m)
    if delta0 >= delta1:
        raise ValueError(
            f"protocol does not separate f=0 from f=1 pairs (delta0={delta0} >= delta1={delta1})"
        )
    # Block r of input x holds slice r's padded state, scaled by 1/sqrt(|R|).
    scale = 1.0 / np.sqrt(v.num_rand)
    alphas = _junk_pad(v.a.transpose(1, 0, 2), 0, v.norm_bound)
    betas = _junk_pad(v.b.transpose(1, 0, 2), 1, v.norm_bound)
    alphas *= scale
    betas *= scale
    return ThresholdEmbedding(alphas.reshape(m.rows, -1), betas.reshape(m.cols, -1),
                              delta0, delta1)


def reduce_embedding_dimension(
    e: ThresholdEmbedding,
    m: SignMatrix,
    seed,
    target_dim: int | None = None,
) -> ThresholdEmbedding:
    """Random-project an embedding to a lower dimension, re-padding to unit
    norm, at thresholds tightened inward by a quarter of the gap.

    The default target is the JL dimension for distortion (delta1-delta0)/10;
    at desk scale that often exceeds the current dimension, in which case the
    embedding is returned unchanged.  Fresh seeds are retried until the
    verifier passes at the tightened thresholds.
    """
    report = verify_threshold_embedding(e, m)
    if not report.valid:
        raise ValueError("embedding is not valid for M; refusing to reduce")
    gap = e.delta1 - e.delta0
    if gap < MIN_GAP:
        raise ValueError(f"threshold gap {gap} below {MIN_GAP}; reduction refused")
    eps = gap / 10.0
    count = e.alphas.shape[0] + e.betas.shape[0] + 1
    target = target_dim if target_dim is not None else projections.jl_dimension(count, eps)

    delta0 = e.delta0 + gap / 4.0
    delta1 = e.delta1 - gap / 4.0

    def rebuild(a: np.ndarray, b: np.ndarray) -> ThresholdEmbedding:
        big_l = max(1.0, float(np.linalg.norm(np.vstack([a, b]), axis=1).max()))
        return ThresholdEmbedding(_junk_pad(a, 0, big_l), _junk_pad(b, 1, big_l), delta0, delta1)

    return _jl_reduce(
        e, target, seed, rebuild, lambda candidate: verify_threshold_embedding(candidate, m).valid
    )


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
