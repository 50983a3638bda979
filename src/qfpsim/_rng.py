"""Seeding conventions: where each command's random draws come from.

``simulate`` takes one stream of doubles, ``uniforms(seed, n)``, from the
standard library's Mersenne Twister, so it never loads ``numpy.random``.
``project``, ``compile --reduce``, ``compile --num-r`` and the classical
estimator (``compiler.classical_projection_protocol``) draw from numpy PCG64
generators derived from a numpy SeedSequence (``generator``), and
independent sub-streams are derived by ``spawn``.  Every seed is a
non-negative integer (or a SeedSequence, for ``generator`` and ``spawn``).
No library code calls ``pair_sequence``; it is kept only because
``perfbench/spans.py`` wraps it.
"""

from __future__ import annotations

import operator
import random

import numpy as np


def uniforms(seed, n: int) -> np.ndarray:
    """n doubles uniform on [0, 1), one stream per seed: the top 53 bits of
    each little-endian 64-bit word of ``random.Random(seed).randbytes``.  A
    negative seed is refused, since ``random.Random`` seeds with |seed|."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = np.frombuffer(random.Random(seed).randbytes(8 * n), dtype="<u8")
    return (words >> 11) * 2.0**-53


def seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed)))


def spawn(seed, n: int) -> list[np.random.SeedSequence]:
    return seed_sequence(seed).spawn(n)


def pair_sequence(seed, x: int, y: int) -> np.random.SeedSequence:
    """Sub-seed for pair (x, y): the pair index is appended to the parent's
    spawn key, so pairs of sibling sequences (from ``spawn``) differ too."""
    base = seed_sequence(seed)
    entropy = base.entropy if base.entropy is not None else 0
    return np.random.SeedSequence(entropy=entropy, spawn_key=base.spawn_key + (x, y))
