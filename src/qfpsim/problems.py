"""Generators for the concrete problems: Equality, Inner Product, and the
Hamming-distance threshold problem with its biased-parity sketch embedding."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._record import Record
from .embeddings import SignMatrix, ThresholdEmbedding

# imported where used, so that a sign matrix alone never loads the compiler
if TYPE_CHECKING:
    from .compiler import ClassicalSMPProtocol, OneWayProtocol

MAX_BITS = 12
MAX_EXACT_HAM_BITS = 9
MIN_GAP = 1e-6  # the smallest threshold gap a sketch accepts

def _check_bits(name: str, n: int) -> None:
    if not (1 <= n <= MAX_BITS):
        raise ValueError(f"{name} must lie in [1, {MAX_BITS}], got {n}")


def eq_matrix(n: int) -> SignMatrix:
    """Equality on n-bit strings: -1 on the diagonal, +1 elsewhere."""
    _check_bits("n", n)
    size = 1 << n
    entries = np.ones((size, size), dtype=np.int8)
    np.fill_diagonal(entries, -1)
    return SignMatrix(entries)


def ip_matrix(k: int) -> SignMatrix:
    """Inner product mod 2 on k-bit strings: M_{xy} = (-1)^{<x,y>}."""
    _check_bits("k", k)
    return SignMatrix(1 - 2 * _parity_table(k, np.arange(1 << k)))


def ham_matrix(n: int, d: int) -> SignMatrix:
    """Hamming threshold: -1 iff the Hamming distance of x and y is <= d."""
    _check_bits("n", n)
    if not (0 <= d < n):
        raise ValueError(f"d must lie in [0, {n - 1}], got {d}")
    idx = np.arange(1 << n, dtype=np.uint16)  # uint16 holds every n <= MAX_BITS
    near = np.bitwise_count(np.bitwise_xor.outer(idx, idx)) <= d
    return SignMatrix(np.where(near, np.int8(-1), np.int8(1)))


def _parity_table(n: int, rand_strings: np.ndarray) -> np.ndarray:
    """parities[x, j] = <x, s_j> mod 2 for all n-bit x, as int8."""
    # uint16 holds every n <= MAX_BITS; the AND and its bit count stay 2 and 1 bytes
    xs = np.arange(1 << n, dtype=np.uint16)
    counts = np.bitwise_count(np.bitwise_and.outer(xs, rand_strings.astype(np.uint16)))
    return np.bitwise_and(counts, 1, out=counts).view(np.int8)


def _rand_set(n: int, num_r: int | None, seed) -> np.ndarray:
    if num_r is None:
        return np.arange(1 << n)
    if num_r < 1:
        raise ValueError("num_r must be >= 1")
    from ._rng import generator  # only --num-r draws; a matrix alone loads no RNG
    return generator(seed).integers(0, 1 << n, size=num_r)


def eq_parity_protocol(n: int, num_r: int | None = None, seed=0) -> ClassicalSMPProtocol:
    """One-bit parity protocol for equality: messages <x,r> and <y,r> mod 2,
    referee accepts iff they agree.

    With the full shared-randomness set (the default) the acceptance
    probability is exactly 1 on x=y and 1/2 on x!=y.  ``num_r`` caps the set
    by a seeded uniform sample instead (the Newman-style alternative).
    """
    from .compiler import ClassicalSMPProtocol
    _check_bits("n", n)
    rand = _rand_set(n, num_r, seed)
    table = _parity_table(n, rand)
    accept = np.eye(2, dtype=np.int8)
    return ClassicalSMPProtocol(
        n=n,
        c=1,
        rand_strings=tuple(int(r) for r in rand),
        alice_messages=table,
        bob_messages=table,
        accept=accept,
    )


def eq_parity_one_way_protocol(n: int, num_r: int | None = None, seed=0) -> OneWayProtocol:
    """The same parity check expressed one-way: Bob accepts iff Alice's bit
    equals <y, r>."""
    from .compiler import OneWayProtocol
    smp = eq_parity_protocol(n, num_r, seed)
    return OneWayProtocol(smp.n, smp.c, smp.rand_strings, smp.alice_messages, smp.bob_accept)


def collision_probability(delta: int, p: float) -> float:
    """Exact agreement probability of two biased-parity sketch bits at
    Hamming distance delta: (1 + (1-2p)^delta) / 2."""
    return (1.0 + (1.0 - 2.0 * p) ** delta) / 2.0


class HamEmbeddingReport(Record):
    embedding: ThresholdEmbedding
    margin_lower_bound: float
    bit_bias: float


def ham_parity_embedding(n: int, d: int) -> HamEmbeddingReport:
    """Fingerprint states for the Hamming threshold problem from biased
    parity sketches, with the implied margin lower bound.

    Each sketch bit under random string s is <x, s> mod 2 where s has
    independent Bernoulli(p) entries with p = 1/(2d), so two inputs at
    Hamming distance delta agree with probability (1 + (1-2p)^delta)/2,
    strictly decreasing in delta and leaving a Theta(1/d) gap between
    delta = d and delta = d+1.  (delta0, delta1) are set from these exact
    extremal collision probabilities and the margin lower bound
    (delta1-delta0)/(2+delta1+delta0) follows from the embedding-to-
    realization conversion.

    Every n-bit string s is enumerated with its Bernoulli weight, so each
    pairwise inner product is exactly the analytic collision probability
    and the embedding verifies; n is capped at ``MAX_EXACT_HAM_BITS``.
    """
    _check_bits("n", n)
    if not (2 <= d < n / 2):
        raise ValueError(
            f"d must satisfy 2 <= d < n/2 (at d = 1 the bit bias is 1/2 and every "
            f"collision probability is 1/2), got d={d} at n={n}"
        )
    if n > MAX_EXACT_HAM_BITS:
        raise ValueError(f"the exact sketch is capped at n <= {MAX_EXACT_HAM_BITS}, got n={n}")
    p = 1.0 / (2.0 * d)
    delta1 = collision_probability(d, p) ** 2
    delta0 = collision_probability(d + 1, p) ** 2
    if delta1 - delta0 < MIN_GAP:
        raise ValueError(f"collision gap {delta1 - delta0} below {MIN_GAP}")
    margin = (delta1 - delta0) / (2.0 + delta1 + delta0)

    size = 1 << n
    strings = np.arange(size)
    weights = np.bitwise_count(strings).astype(np.float64)
    amps = np.sqrt(p**weights * (1.0 - p) ** (n - weights))
    parities = _parity_table(n, strings)  # (2^n, 2^n)
    vectors = np.zeros((size, 2 * size))
    vectors[strings[:, None], 2 * strings[None, :] + parities] = amps[None, :]
    embedding = ThresholdEmbedding(vectors, vectors, delta0, delta1)
    return HamEmbeddingReport(embedding=embedding, margin_lower_bound=margin, bit_bias=p)
