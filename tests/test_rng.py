import math

import numpy as np
import pytest

from qfpsim._rng import generator, integers, normals, pair_sequence, signs


def pcg64(sequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(sequence))


class TestPairSequence:
    def test_integer_seed_stream_unchanged(self):
        assert pcg64(pair_sequence(0, 0, 0)).random() == 0.5651317655614634

    def test_siblings_differ(self):
        first, second = (pcg64(pair_sequence(c, 0, 0)).random()
                         for c in np.random.SeedSequence(0).spawn(2))
        assert first != second

    def test_pairs_differ(self):
        draws = {pcg64(pair_sequence(7, x, y)).random() for x in range(3) for y in range(3)}
        assert len(draws) == 9


class TestStream:
    """The first values of seed 0's stream are pinned: any Python version and
    any numpy version draw the same ones."""

    def test_signs_are_pinned(self):
        assert signs(generator(0), 8).tolist() == [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0]

    def test_normals_are_pinned(self):
        assert normals(generator(0), 3).tolist() == [
            0.7610278717650308, 0.2807531747443326, 1.0046759136959902]

    def test_integers_are_pinned(self):
        assert integers(generator(0), 4, 12).tolist() == [1577, 3646, 165, 3954]
        assert integers(generator(0), 2, 64).tolist() == [
            7106521602475165645, 16422101724900707500]

    @pytest.mark.parametrize("seed", [-1, -(1 << 70)])
    def test_negative_seeds_are_refused(self, seed):
        with pytest.raises(ValueError, match=">= 0"):
            generator(seed)

    @pytest.mark.parametrize("seed", [1.0, "1", None, 2.5])
    def test_seeds_that_are_not_integers_are_refused(self, seed):
        with pytest.raises(TypeError):
            generator(seed)

    def test_numpy_integer_seeds_are_taken(self):
        assert generator(np.int64(5)).random() == generator(5).random()

    @pytest.mark.parametrize("bits", [1, 3, 12, 63, 64])
    def test_integers_stay_in_range(self, bits):
        draws = integers(generator(bits), 4096, bits)
        assert draws.dtype == np.uint64 and int(draws.max()) < 1 << bits
        # the top bit is set in about half the draws
        assert abs(np.mean(draws >> np.uint64(bits - 1)) - 0.5) < 0.05

    @pytest.mark.parametrize("bits", [0, 65])
    def test_integers_refuse_widths_outside_a_word(self, bits):
        with pytest.raises(ValueError, match="bits"):
            integers(generator(0), 1, bits)

    def test_draws_continue_across_word_aligned_blocks(self):
        # each helper reads whole 32-bit words when its byte count is a
        # multiple of 4, so two draws give the numbers of one
        for draw, size in ((signs, 4), (normals, 1), (integers, 1)):
            args = (12,) if draw is integers else ()
            rng = generator(3)
            halves = np.concatenate([draw(rng, 8 * size, *args), draw(rng, 8 * size, *args)])
            assert np.array_equal(halves, draw(generator(3), 16 * size, *args))

    def test_normals_have_the_standard_moments(self):
        z = normals(generator(1), 1 << 16)
        assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.02
        assert np.all(np.isfinite(z)) and np.abs(z).max() <= math.sqrt(2 * 53 * math.log(2))
