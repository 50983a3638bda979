"""Seeding conventions: where each command's random draws come from.

``project``, ``compile --num-r`` and the classical estimator
(``compiler.classical_projection_protocol``) draw from one standard-library
Mersenne Twister per seed (``generator``), the same on any numpy version.
The draw helpers read a fixed number of stream bytes an entry (``signs`` one,
``integers`` eight, ``normals`` sixteen), so a draw cut into blocks of a
multiple of 4 bytes (one 32-bit word of the stream) gives the numbers of one
whole draw.  Every seed is a non-negative integer.  No command loads
``numpy.random``.  No library code calls ``pair_sequence``; it is kept only
because ``perfbench/spans.py`` wraps it.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np


def generator(seed) -> random.Random:
    """The stream of ``seed``, a non-negative integer: ``random.Random``
    would seed a negative one as its absolute value."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")
    return random.Random(seed)


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The stream's next ``count`` 64-bit words, each from two 32-bit draws."""
    return np.frombuffer(rng.randbytes(8 * count), "<u8")


def signs(rng: random.Random, count: int) -> np.ndarray:
    """``count`` entries of +-1.0, each -1 where the high bit of its stream byte is set."""
    return np.where(np.frombuffer(rng.randbytes(count), np.uint8) >= 128, -1.0, 1.0)


def integers(rng: random.Random, count: int, bits: int) -> np.ndarray:
    """``count`` uniform integers in [0, 2^bits), each the top ``bits`` bits of a 64-bit word."""
    if not 1 <= bits <= 64:
        raise ValueError(f"bits must lie in [1, 64], got {bits}")
    return _words(rng, count) >> (64 - bits)


def normals(rng: random.Random, count: int) -> np.ndarray:
    """``count`` standard normals by the cosine branch of Box-Muller: each
    from two 53-bit uniforms, u in (0, 1] and v in [0, 1), as
    sqrt(-2 ln u) cos(2 pi v)."""
    pairs = (_words(rng, 2 * count) >> 11).reshape(count, 2)
    u = 1.0 - pairs[:, 0] * 2.0**-53
    angle = pairs[:, 1] * (2.0 * math.pi * 2.0**-53)
    np.log(u, out=u)
    u *= -2.0
    np.sqrt(u, out=u)
    u *= np.cos(angle, out=angle)
    return u


def pair_sequence(seed, x: int, y: int):
    """Sub-seed for pair (x, y), a numpy SeedSequence: the pair index is
    appended to the parent's spawn key, so pairs of sibling sequences (from
    ``SeedSequence.spawn``) differ too."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    entropy = base.entropy if base.entropy is not None else 0
    return np.random.SeedSequence(entropy=entropy, spawn_key=base.spawn_key + (x, y))
