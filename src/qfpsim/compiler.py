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
    _worst_pair,
    verify_threshold_embedding,
)

NORM_TOL = 1e-9
MIN_GAP = 1e-6
QUANT_RANGE = 2.0  # symmetric fixed-point range for projected coordinates


def _message_table(name: str, table, c: int) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d truth table (inputs x random strings)")
    if arr.min() < 0 or arr.max() >= (1 << c):
        raise ValueError(f"{name} contains a message outside [0, 2^{c})")
    return arr


@dataclass(frozen=True)
class ClassicalSMPProtocol:
    """Classical SMP protocol over an explicit shared-randomness set, as truth
    tables: ``alice_messages[x, r]``, ``bob_messages[y, r]`` in [2^c], and a
    referee predicate ``accept[m_a, m_b]``."""

    n: int
    c: int
    rand_strings: tuple[int, ...]
    alice_messages: np.ndarray
    bob_messages: np.ndarray
    accept: np.ndarray

    def __post_init__(self):
        if len(self.rand_strings) < 1:
            raise ValueError("the shared-randomness set must be nonempty")
        object.__setattr__(self, "rand_strings", tuple(int(r) for r in self.rand_strings))
        a = _message_table("alice_messages", self.alice_messages, self.c)
        b = _message_table("bob_messages", self.bob_messages, self.c)
        acc = np.asarray(self.accept)
        if acc.shape != (1 << self.c, 1 << self.c) or not np.isin(acc, (0, 1)).all():
            raise ValueError("accept must be a 2^c x 2^c 0/1 table")
        if a.shape[1] != len(self.rand_strings) or b.shape[1] != len(self.rand_strings):
            raise ValueError("message tables must have one column per random string")
        object.__setattr__(self, "alice_messages", a)
        object.__setattr__(self, "bob_messages", b)
        object.__setattr__(self, "accept", acc.astype(np.int8))

    @property
    def num_rand(self) -> int:
        return len(self.rand_strings)


@dataclass(frozen=True)
class OneWayProtocol:
    """Classical one-way protocol: Alice's messages as a truth table and Bob's
    decision ``bob_accept[m_a, y, r]``."""

    n: int
    c: int
    rand_strings: tuple[int, ...]
    alice_messages: np.ndarray
    bob_accept: np.ndarray

    def __post_init__(self):
        if len(self.rand_strings) < 1:
            raise ValueError("the shared-randomness set must be nonempty")
        object.__setattr__(self, "rand_strings", tuple(int(r) for r in self.rand_strings))
        a = _message_table("alice_messages", self.alice_messages, self.c)
        acc = np.asarray(self.bob_accept)
        if acc.ndim != 3 or acc.shape[0] != (1 << self.c) or not np.isin(acc, (0, 1)).all():
            raise ValueError("bob_accept must be a 2^c x |Y| x |R| 0/1 table")
        if a.shape[1] != len(self.rand_strings) or acc.shape[2] != len(self.rand_strings):
            raise ValueError("truth tables must have one slice per random string")
        object.__setattr__(self, "alice_messages", a)
        object.__setattr__(self, "bob_accept", acc.astype(np.int8))

    @property
    def num_rand(self) -> int:
        return len(self.rand_strings)


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
            worst = float(np.linalg.norm(arr, axis=2).max())
            if worst > self.norm_bound + NORM_TOL:
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
        return np.einsum("rxd,ryd->xy", self.a, self.b) / self.num_rand


def compile_one_way(p: OneWayProtocol) -> VectorSystem:
    """Indicator-vector compilation: a_r(x) is the one-hot of Alice's message,
    b_r(y) the indicator set of accepting messages, both in {0,1}^(2^c)."""
    dim = 1 << p.c
    eye = np.eye(dim)
    a = eye[p.alice_messages].transpose(1, 0, 2)  # (|R|, |X|, 2^c)
    b = p.bob_accept.astype(np.float64).transpose(2, 1, 0)  # (|R|, |Y|, 2^c)
    return VectorSystem(a, b, float(np.sqrt(dim)))


def compile_smp(p: ClassicalSMPProtocol) -> VectorSystem:
    """As compile_one_way, with b_r(y)[m] = accept[m, bob_message(y, r)]."""
    dim = 1 << p.c
    eye = np.eye(dim)
    a = eye[p.alice_messages].transpose(1, 0, 2)
    b = p.accept.astype(np.float64)[:, p.bob_messages].transpose(2, 1, 0)
    return VectorSystem(a, b, float(np.sqrt(dim)))


def _junk_pad(a: np.ndarray, b: np.ndarray, big_l: float) -> tuple[np.ndarray, np.ndarray]:
    """Pad rows of norm <= big_l to norm big_l on a junk coordinate per side
    (dim for a, dim+1 for b) and divide by big_l: unit states on dim+2
    coordinates with <alpha_x, beta_y> = <a_x, b_y> / big_l^2 exactly."""
    dim = a.shape[1]

    def pad(block: np.ndarray, junk_offset: int) -> np.ndarray:
        sq = (block * block).sum(axis=1)
        slack = np.sqrt(np.maximum(big_l**2 - sq, 0.0))
        out = np.zeros((block.shape[0], dim + 2))
        out[:, :dim] = block
        out[:, dim + junk_offset] = slack
        return out / big_l

    return pad(a, 0), pad(b, 1)


def pad_to_states(v: VectorSystem, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Junk-pad the r-th slice into unit states on dim+2 coordinates, with
    <alpha_x, beta_y> = <a(x), b(y)> / L^2."""
    if not (0 <= r < v.num_rand):
        raise ValueError(f"random-string index {r} out of range [0, {v.num_rand})")
    return _junk_pad(v.a[r], v.b[r], v.norm_bound)


def assemble_shared_randomness_states(v: VectorSystem, m: SignMatrix) -> ThresholdEmbedding:
    """Superpose all junk-padded per-r states into block vectors on
    |R| (dim+2) coordinates, so that <alpha_x, beta_y> = P(x,y) / L^2 exactly.

    delta0 / delta1 are set to the exact extremal values of (P/L^2)^2 over
    the f=0 and f=1 pairs of the supplied sign matrix; errors out when the
    system does not separate the two sides.
    """
    p = v.acceptance_matrix()
    if p.shape != (m.rows, m.cols):
        raise ValueError(
            f"vector system is {p.shape[0]}x{p.shape[1]} but the sign matrix is "
            f"{m.rows}x{m.cols}"
        )
    block = v.dim + 2
    scale = 1.0 / np.sqrt(v.num_rand)
    alphas = np.zeros((m.rows, v.num_rand * block))
    betas = np.zeros((m.cols, v.num_rand * block))
    for r in range(v.num_rand):
        pa, pb = pad_to_states(v, r)
        alphas[:, r * block : (r + 1) * block] = scale * pa
        betas[:, r * block : (r + 1) * block] = scale * pb

    sq = (p / v.norm_bound**2) ** 2
    delta0, _ = _worst_pair(sq, m.zero_pairs(), largest=True) or (0.0, None)
    delta1, _ = _worst_pair(sq, m.one_pairs()) or (1.0, None)
    if delta0 >= delta1:
        raise ValueError(
            f"protocol does not separate f=0 from f=1 pairs (delta0={delta0} >= delta1={delta1})"
        )
    return ThresholdEmbedding(alphas, betas, delta0, delta1)


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
        alphas, betas = _junk_pad(a, b, big_l)
        return ThresholdEmbedding(alphas, betas, delta0, delta1)

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
