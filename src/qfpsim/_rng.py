"""Seeding conventions: where each command's random draws come from.

``project``, ``compile --num-r`` and the classical estimator
(``compiler.classical_projection_protocol``) draw from numpy PCG64
generators derived from a numpy SeedSequence (``generator``).  Every seed is
a non-negative integer or a SeedSequence.  ``simulate`` draws nothing: it
reports the exact error law, so it never loads ``numpy.random``.
No library code calls ``pair_sequence``; it is kept only because
``perfbench/spans.py`` wraps it.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed)))


def pair_sequence(seed, x: int, y: int) -> np.random.SeedSequence:
    """Sub-seed for pair (x, y): the pair index is appended to the parent's
    spawn key, so pairs of sibling sequences (from ``SeedSequence.spawn``)
    differ too."""
    base = seed_sequence(seed)
    entropy = base.entropy if base.entropy is not None else 0
    return np.random.SeedSequence(entropy=entropy, spawn_key=base.spawn_key + (x, y))
