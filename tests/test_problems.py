import itertools

import numpy as np
import pytest

from qfpsim.compiler import compile_smp
from qfpsim.embeddings import verify_threshold_embedding
from qfpsim.problems import (
    MAX_BITS,
    MAX_EXACT_HAM_BITS,
    MIN_GAP,
    collision_probability,
    eq_matrix,
    eq_parity_protocol,
    ham_matrix,
    ham_parity_embedding,
    ip_matrix,
)


class TestMatrices:
    def test_eq_structure(self):
        m = eq_matrix(2)
        assert m.rows == m.cols == 4
        assert np.all(m.entries != 0)
        np.testing.assert_array_equal(np.diag(m.entries), -1)
        assert (m.entries == 1).sum() == 12

    def test_ip_brute_force(self):
        m = ip_matrix(3)
        for x, y in itertools.product(range(8), repeat=2):
            parity = bin(x & y).count("1") % 2
            assert m.entries[x, y] == (-1) ** parity

    def test_ip_k1(self):
        np.testing.assert_array_equal(ip_matrix(1).entries, [[1, 1], [1, -1]])

    def test_ham_brute_force(self):
        m = ham_matrix(4, 1)
        for x, y in itertools.product(range(16), repeat=2):
            dist = bin(x ^ y).count("1")
            assert m.entries[x, y] == (-1 if dist <= 1 else 1)

    def test_widest_inputs_sampled(self):
        # at MAX_BITS the high bits of x and y reach every entry
        ip, ham = ip_matrix(MAX_BITS), ham_matrix(MAX_BITS, 5)
        rng = np.random.default_rng(0)
        for x, y in rng.integers(0, 1 << MAX_BITS, (200, 2)):
            assert ip.entries[x, y] == (-1) ** bin(x & y).count("1")
            assert ham.entries[x, y] == (-1 if bin(x ^ y).count("1") <= 5 else 1)

    def test_ham_d0_is_eq(self):
        np.testing.assert_array_equal(ham_matrix(3, 0).entries, eq_matrix(3).entries)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            eq_matrix(0)
        with pytest.raises(ValueError):
            eq_matrix(13)
        with pytest.raises(ValueError):
            ham_matrix(4, 4)


class TestEqParityProtocol:
    def test_full_randomness_acceptance(self):
        acc = compile_smp(eq_parity_protocol(3)).acceptance_matrix()
        np.testing.assert_allclose(np.diag(acc), 1.0)
        np.testing.assert_allclose(acc[~np.eye(8, dtype=bool)], 0.5)

    def test_sampled_randomness_close(self):
        acc = compile_smp(eq_parity_protocol(3, num_r=512, seed=1)).acceptance_matrix()
        np.testing.assert_allclose(np.diag(acc), 1.0)
        off = acc[~np.eye(8, dtype=bool)]
        assert np.abs(off - 0.5).max() < 0.15

    def test_sampled_deterministic(self):
        p1 = eq_parity_protocol(2, num_r=16, seed=9)
        p2 = eq_parity_protocol(2, num_r=16, seed=9)
        assert p1.rand_strings == p2.rand_strings

    def test_parties_hold_equal_read_only_int8_tables(self):
        p = eq_parity_protocol(9)
        for table in (p.alice_messages, p.bob_messages):
            assert table.dtype == np.int8 and not table.flags.writeable
        assert np.array_equal(p.alice_messages, p.bob_messages)


class TestCollisionProbability:
    def test_edge_values(self):
        assert collision_probability(0, 0.25) == 1.0
        assert collision_probability(1, 0.25) == 0.75
        assert collision_probability(1, 0.5) == 0.5

    def test_monte_carlo_oracle(self):
        # Agreement frequency of parity sketches over Bernoulli(p) strings.
        rng = np.random.default_rng(0)
        n, p, delta = 6, 0.2, 3
        y = (1 << delta) - 1  # at distance delta from x = 0
        bits = rng.random((50_000, n)) < p
        s = (bits * (1 << np.arange(n))).sum(axis=1).astype(np.int64)
        par_y = np.array([bin(y & int(si)).count("1") & 1 for si in s])
        freq = np.mean(par_y == 0)  # <0, s> mod 2 is always 0
        assert freq == pytest.approx(collision_probability(delta, p), abs=0.01)

    def test_strictly_decreasing(self):
        vals = [collision_probability(k, 0.1) for k in range(10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestHamParityEmbedding:
    def test_exact_inner_products(self):
        n, d = 6, 2
        rep = ham_parity_embedding(n, d)
        ips = rep.embedding.alphas @ rep.embedding.betas.T
        idx = np.arange(1 << n)
        dist = np.bitwise_xor.outer(idx, idx)
        dist = np.vectorize(lambda v: bin(v).count("1"))(dist)
        expected = (1 + (1 - 2 * rep.bit_bias) ** dist) / 2
        np.testing.assert_allclose(ips, expected, atol=1e-12)

    def test_thresholds_and_margin_formula(self):
        rep = ham_parity_embedding(6, 2)
        e = rep.embedding
        p = 1 / 4
        assert rep.bit_bias == pytest.approx(p)
        assert e.delta1 == pytest.approx(collision_probability(2, p) ** 2, abs=1e-15)
        assert e.delta0 == pytest.approx(collision_probability(3, p) ** 2, abs=1e-15)
        assert rep.margin_lower_bound == pytest.approx(
            (e.delta1 - e.delta0) / (2 + e.delta1 + e.delta0), abs=1e-15
        )

    @pytest.mark.parametrize("n, d", [
        (n, d) for n in range(1, MAX_EXACT_HAM_BITS + 1) for d in range(2, n) if d < n / 2
    ])
    def test_exact_embedding_verifies(self, n, d):
        # every admissible (n, d) up to the cap
        rep = ham_parity_embedding(n, d)
        e = rep.embedding
        assert verify_threshold_embedding(e, ham_matrix(n, d)).valid
        assert e.delta1 - e.delta0 >= MIN_GAP
        assert rep.margin_lower_bound == (e.delta1 - e.delta0) / (2 + e.delta1 + e.delta0)

    def test_exact_mode_capped(self):
        with pytest.raises(ValueError, match=f"capped at n <= {MAX_EXACT_HAM_BITS}"):
            ham_parity_embedding(MAX_EXACT_HAM_BITS + 1, 3)

    def test_degenerate_bias_rejected(self):
        # d = 1 puts the bit bias at 1/2, which kills the collision gap.
        with pytest.raises(ValueError, match="2 <= d < n/2"):
            ham_parity_embedding(4, 1)

    def test_margin_scaling_with_d(self):
        margins = [ham_parity_embedding(8, d).margin_lower_bound for d in (2, 3)]
        # gamma ~ Theta(1/d): products gamma*d stay within a small constant.
        products = [m * d for m, d in zip(margins, (2, 3))]
        assert max(products) / min(products) < 2.0
