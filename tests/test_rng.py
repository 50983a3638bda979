import numpy as np

from qfpsim._rng import generator, pair_sequence


class TestPairSequence:
    def test_integer_seed_stream_unchanged(self):
        assert generator(pair_sequence(0, 0, 0)).random() == 0.5651317655614634

    def test_siblings_differ(self):
        first, second = (generator(pair_sequence(c, 0, 0)).random()
                         for c in np.random.SeedSequence(0).spawn(2))
        assert first != second

    def test_pairs_differ(self):
        draws = {generator(pair_sequence(7, x, y)).random() for x in range(3) for y in range(3)}
        assert len(draws) == 9
