import random

import numpy as np
import pytest

from qfpsim._rng import generator, pair_sequence, spawn, uniforms


class TestPairSequence:
    def test_integer_seed_stream_unchanged(self):
        assert generator(pair_sequence(0, 0, 0)).random() == 0.5651317655614634

    def test_siblings_differ(self):
        first, second = (generator(pair_sequence(c, 0, 0)).random() for c in spawn(0, 2))
        assert first != second

    def test_pairs_differ(self):
        draws = {generator(pair_sequence(7, x, y)).random() for x in range(3) for y in range(3)}
        assert len(draws) == 9


class TestUniforms:
    def test_top_53_bits_of_each_little_endian_word(self):
        stream = random.Random(5).randbytes(8 * 4)
        words = [int.from_bytes(stream[8 * i:8 * i + 8], "little") for i in range(4)]
        assert uniforms(5, 4).tolist() == [(w >> 11) / 2**53 for w in words]

    def test_one_stream_per_seed(self):
        u = uniforms(3, 1000)
        assert u.dtype == np.float64 and u.shape == (1000,)
        assert 0.0 <= u.min() and u.max() < 1.0
        # a shorter draw is a prefix of the same stream
        assert np.array_equal(uniforms(3, 10), u[:10])
        assert not np.array_equal(uniforms(4, 10), u[:10])
        assert uniforms(np.int64(3), 10).tolist() == u[:10].tolist()

    def test_negative_seed_refused(self):
        # random.Random(-1) is random.Random(1): refuse rather than repeat a stream
        with pytest.raises(ValueError, match="non-negative"):
            uniforms(-1, 3)

    def test_non_integer_seed_refused(self):
        with pytest.raises(TypeError):
            uniforms(1.5, 3)
