import math

import numpy as np
import pytest

from qfpsim.embeddings import SignMatrix, ThresholdEmbedding
from qfpsim.fingerprint import (
    FingerprintProtocol,
    protocol_from_margin,
    referee_decide,
    referee_rule,
    required_repetitions,
    run_protocol,
    sample_swap_tests,
    swap_test_prob,
)
from qfpsim.problems import eq_matrix
from tests.test_embeddings import eq_explicit_realization, eq_orthonormal_embedding


class TestSwapTestProb:
    def test_orthogonal(self):
        assert swap_test_prob([1, 0], [0, 1]) == 0.5

    def test_identical(self):
        assert swap_test_prob([1, 0], [1, 0]) == 1.0

    def test_formula(self):
        assert swap_test_prob([1, 0], [0.6, 0.8]) == pytest.approx(0.68)

    def test_sign_invariant(self):
        assert swap_test_prob([1, 0], [0.6, 0.8]) == swap_test_prob([1, 0], [-0.6, 0.8])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            swap_test_prob([1, 1], [1, 0])


class TestSampleSwapTests:
    def test_identical_states_always_zero(self):
        bits = sample_swap_tests([1, 0], [1, 0], 500, seed=3)
        assert not bits.any()

    def test_deterministic(self):
        a = sample_swap_tests([1, 0], [0.6, 0.8], 1000, seed=42)
        b = sample_swap_tests([1, 0], [0.6, 0.8], 1000, seed=42)
        assert (a == b).all()

    def test_binomial_concentration(self):
        r = 100_000
        bits = sample_swap_tests([1, 0], [0, 1], r, seed=0)
        freq = np.mean(bits == 0)
        assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / r)


class TestRequiredRepetitions:
    def test_full_gap(self):
        assert required_repetitions(0, 1, 1 / 3) == math.ceil(8 * math.log(6)) == 15

    def test_halving_gap_quadruples(self):
        exact = 8 * math.log(6)
        assert required_repetitions(0, 0.5, 1 / 3) == math.ceil(exact * 4)
        assert required_repetitions(0, 0.25, 1 / 3) == math.ceil(exact * 16)

    def test_narrow_gap(self):
        assert required_repetitions(0, 0.1875, 1 / 3) == 408

    def test_preconditions(self):
        with pytest.raises(ValueError):
            required_repetitions(0.5, 0.5, 1 / 3)
        with pytest.raises(ValueError):
            required_repetitions(0, 1, 0.7)


class TestRefereeDecide:
    def test_all_zeros(self):
        assert referee_decide([0, 0, 0], 0.5) == 1

    def test_half_zeros_clamps(self):
        assert referee_decide([0, 1, 0, 1], 0.5) == 0

    def test_tie_goes_to_one(self):
        # 3/4 zeros -> estimate exactly 0.5
        assert referee_decide([0, 0, 0, 1], 0.5) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            referee_decide([], 0.5)

    def test_rule_on_counts_matches_decide_on_bits(self):
        # run_protocol applies referee_rule to K/r; referee_decide sees bits.
        for r in range(1, 25):
            k = np.arange(r + 1)
            for theta in np.linspace(0.02, 0.98, 49):
                on_counts = referee_rule(k / r, theta)
                for zeros in k:
                    bits = np.r_[np.zeros(zeros), np.ones(r - zeros)]
                    assert int(on_counts[zeros]) == referee_decide(bits, theta), (r, theta, zeros)


class TestProtocolFromMargin:
    def test_eq_margin_third(self):
        m = eq_matrix(2)
        p = protocol_from_margin(m, eq_explicit_realization(4), eps=1 / 3)
        assert p.embedding.delta0 == pytest.approx(1 / 9)
        assert p.embedding.delta1 == pytest.approx(4 / 9)
        assert p.repetitions == math.ceil(8 * math.log(6) * 9)
        assert p.theta == pytest.approx((1 / 9 + 4 / 9) / 2)

    def test_full_margin(self):
        from qfpsim.embeddings import Realization, SignMatrix

        r = Realization(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        p = protocol_from_margin(SignMatrix([[1]]), r, eps=1 / 3)
        assert p.repetitions == 15
        assert p.theta == pytest.approx(0.5)

    def test_invalid_realization(self):
        from qfpsim.embeddings import Realization

        m = eq_matrix(2)
        base = eq_explicit_realization(4)
        with pytest.raises(ValueError, match="margin"):
            protocol_from_margin(m, Realization(base.alphas, base.betas, 0.99), eps=1 / 3)

    def test_theta_must_separate(self):
        with pytest.raises(ValueError, match="theta"):
            FingerprintProtocol(eq_orthonormal_embedding(4), 10, 1.0)


class TestRunProtocol:
    def test_eq_error_within_eps(self):
        m = eq_matrix(2)
        emb = eq_orthonormal_embedding(4)
        reps = required_repetitions(0.0, 1.0, 1 / 3)
        p = FingerprintProtocol(emb, reps, 0.5)
        report = run_protocol(p, m, trials=200, seed=0)
        eps = 1 / 3
        assert report.max_error <= eps + 3 * math.sqrt(eps * (1 - eps) / 200)
        assert report.qubits_per_copy == 2
        assert report.total_qubits == 2 * 2 * reps

    def test_single_repetition_diagonal_is_exact(self):
        m = eq_matrix(1)
        emb = eq_orthonormal_embedding(2)
        p = FingerprintProtocol(emb, 1, 0.5)
        report = run_protocol(p, m, trials=100, seed=1)
        # x == y pairs have inner product 1: the swap test is deterministic
        assert report.per_pair_error[0, 0] == 0.0
        assert report.per_pair_error[1, 1] == 0.0

    def test_deterministic(self):
        m = eq_matrix(1)
        p = FingerprintProtocol(eq_orthonormal_embedding(2), 20, 0.5)
        a = run_protocol(p, m, trials=50, seed=9)
        b = run_protocol(p, m, trials=50, seed=9)
        assert np.array_equal(a.per_pair_error, b.per_pair_error)

    def test_invalid_embedding_rejected(self):
        m = eq_matrix(1)
        e1 = np.zeros((2, 2))
        e1[:, 0] = 1.0
        p = FingerprintProtocol(ThresholdEmbedding(e1, e1, 0.3, 0.9), 10, 0.5)
        with pytest.raises(ValueError, match="not valid"):
            run_protocol(p, m, trials=10, seed=0)

    def test_error_matches_exact_binomial_tail(self):
        # Orthogonal states: P0 = 1/2, so K ~ Bin(4, 1/2) and the referee errs
        # (estimate 2K/4 - 1 >= 1/2) iff K >= 3.
        m = eq_matrix(2)
        p = FingerprintProtocol(eq_orthonormal_embedding(4), 4, 0.5)
        trials = 4000
        report = run_protocol(p, m, trials=trials, seed=0)
        exact = sum(math.comb(4, k) for k in (3, 4)) / 2**4
        assert exact == 5 / 16
        off = ~np.eye(4, dtype=bool)
        mean = float(report.per_pair_error[off].mean())
        se = math.sqrt(exact * (1 - exact) / (off.sum() * trials))
        assert abs(mean - exact) <= 3 * se
        assert np.all(report.per_pair_error[np.eye(4, dtype=bool)] == 0.0)

    def test_inner_product_overshoot_does_not_raise(self):
        # A unit state whose computed <a, a>^2 is 1 + ulp gives P0 > 1, which
        # the binomial sampler refuses unless P0 is clipped.
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a = rng.standard_normal(8)
            a = (a / np.linalg.norm(a))[None, :]
            if 0.5 + (a @ a.T)[0, 0] ** 2 / 2 > 1.0:
                break
        else:
            pytest.fail("no unit state with P0 > 1 found")
        p = FingerprintProtocol(ThresholdEmbedding(a, a, 0.0, 1.0), 10, 0.5)
        report = run_protocol(p, SignMatrix([[-1]]), trials=20, seed=0)
        assert report.max_error == 0.0

    def test_promise_pairs_excluded(self):
        m = SignMatrix([[-1, 0], [0, -1]])
        emb = eq_orthonormal_embedding(2)
        p = FingerprintProtocol(emb, 10, 0.5)
        report = run_protocol(p, m, trials=20, seed=0)
        assert np.isnan(report.per_pair_error[0, 1])
        assert np.isnan(report.per_pair_error[1, 0])
