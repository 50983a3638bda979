import math
from fractions import Fraction

import numpy as np
import pytest

from qfpsim import embeddings, fingerprint
from qfpsim._rng import generator, uniforms
from qfpsim.compiler import assemble_shared_randomness_states, compile_one_way
from qfpsim.embeddings import SignMatrix, ThresholdEmbedding, verify_threshold_embedding
from qfpsim.fingerprint import (
    FingerprintProtocol,
    _binomial_draws,
    _binomial_pmf,
    _log_factorials,
    binomial_tails,
    exact_pair_errors,
    protocol_from_embedding,
    protocol_from_margin,
    referee_rule,
    referee_threshold,
    required_repetitions,
    run_protocol,
    swap_test_prob,
)
from qfpsim.linalg import unit_rows
from qfpsim.problems import eq_matrix, eq_parity_protocol, ham_matrix, ham_parity_embedding
from tests.test_embeddings import eq_explicit_realization, eq_orthonormal_embedding


def reference_run(p: FingerprintProtocol, m: SignMatrix, trials: int, seed) -> np.ndarray:
    """Monte-Carlo reference for the protocol's per-pair error, independent of
    the exact law: each trial draws the referee's count of zero outcomes,
    Bin(r, P0) with P0 = 1/2 + <alpha_x, beta_y>^2 / 2, and applies
    ``referee_rule`` to it.  NaN on promise pairs."""
    r = p.repetitions
    alphas, betas = np.asarray(p.embedding.alphas), np.asarray(p.embedding.betas)
    p_zero = np.minimum(0.5 + (alphas @ betas.T) ** 2 / 2.0, 1.0)
    rng = generator(seed)
    errors = np.full((m.rows, m.cols), np.nan)
    for x in range(m.rows):
        cols = np.flatnonzero(m.entries[x])
        zeros = rng.binomial(r, p_zero[x, cols][:, None], size=(cols.size, trials))
        expected = m.entries[x, cols] == -1  # -1 encodes f(x,y)=1
        errors[x, cols] = (referee_rule(zeros / r, p.theta) != expected[:, None]).mean(axis=1)
    return errors


def eq_states(n: int) -> tuple[ThresholdEmbedding, SignMatrix]:
    m = eq_matrix(n)
    return assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(n)), m), m


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
        # checked at embeddings.UNIT_TOL = 1e-9, like every unit row
        with pytest.raises(ValueError, match="unit"):
            swap_test_prob([1 + 1e-7, 0], [1, 0])


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
    """How the referee decides: ``referee_rule`` on the fraction K/r of zero
    outcomes, as ``run_protocol`` applies it."""

    def test_all_zeros(self):
        assert referee_rule(3 / 3, 0.5)

    def test_half_zeros_clamps(self):
        # 2/4 zeros estimate 0 < 0.5; 1/4 zeros estimate -1/2, clipped to 0
        assert not referee_rule(np.array([2 / 4, 1 / 4]), 0.5).any()

    def test_tie_goes_to_one(self):
        # 3/4 zeros -> estimate exactly 0.5
        assert referee_rule(3 / 4, 0.5)


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
        assert p.qubits_per_copy == 2
        assert p.total_qubits == 2 * 2 * reps

    def test_single_repetition_diagonal_is_exact(self):
        m = eq_matrix(1)
        emb = eq_orthonormal_embedding(2)
        p = FingerprintProtocol(emb, 1, 0.5)
        report = run_protocol(p, m, trials=100, seed=1)
        # x == y pairs have inner product 1: the swap test is deterministic
        assert report.per_pair_error[0, 0] == 0.0
        assert report.per_pair_error[1, 1] == 0.0
        # P0 = 1/2 off the diagonal, where one copy errs iff the test gives 0
        exact = exact_pair_errors(p, m)
        assert exact[0, 0] == exact[1, 1] == 0.0
        assert exact[0, 1] == exact[1, 0] == report.exact_error == 0.5

    def test_deterministic(self):
        m = eq_matrix(1)
        p = FingerprintProtocol(eq_orthonormal_embedding(2), 20, 0.5)
        a = run_protocol(p, m, trials=50, seed=9)
        b = run_protocol(p, m, trials=50, seed=9)
        assert np.array_equal(a.per_pair_error, b.per_pair_error)
        assert a.exact_error == b.exact_error

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
        assert report.exact_error == pytest.approx(exact, abs=1e-15)

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
        exact = exact_pair_errors(p, m)
        assert np.array_equal(np.isnan(exact), m.entries == 0)
        assert report.exact_error == 0.0

    def test_seed_moves_the_draws_not_the_exact_error(self):
        e, m = eq_states(3)
        p = protocol_from_embedding(e, 1 / 3)
        runs = [run_protocol(p, m, trials=50, seed=seed) for seed in range(10)]
        assert len({run.exact_error for run in runs}) == 1
        assert len({run.per_pair_error.tobytes() for run in runs}) == 10

    def test_worst_sides_are_the_verifiers_to_the_bit(self):
        # 300 x 300 float states: 90 000 pairs, which the verifier squares in
        # row blocks of 218.  A whole float64 product can differ from those
        # blocks in the last bit (with OpenBLAS's Haswell kernels it does at
        # this seed's extremes), so simulate must read the verifier's blocks.
        rng = np.random.default_rng(25)

        def states():
            rows = rng.standard_normal((300, 8)) * 0.1
            rows[:, 0] = 2.0 * rng.random(300)
            return unit_rows(rows)

        alphas, betas = states(), states()
        squared = (alphas @ betas.T) ** 2
        m = SignMatrix(np.where(squared < 0.1, 1, np.where(squared > 0.5, -1, 0)))
        # thresholds that the states miss, so that the error names the worst sides
        e = ThresholdEmbedding(alphas, betas, 0.05, 0.55)
        report = verify_threshold_embedding(e, m)
        with pytest.raises(ValueError) as exc:
            exact_pair_errors(protocol_from_embedding(e, 1 / 3), m)
        assert (f"(worst f=0 side {report.worst_zero_side}, "
                f"worst f=1 side {report.worst_one_side})") in str(exc.value)


def exact_pmf(r: int, p: float) -> list[Fraction]:
    """The Bin(r, p) pmf in exact rational arithmetic."""
    q = Fraction(p)
    return [math.comb(r, j) * q**j * (1 - q) ** (r - j) for j in range(r + 1)]


class TestExactLaw:
    def test_tails_match_exact_arithmetic(self):
        rng = np.random.default_rng(3)
        for r in list(range(1, 8)) + [int(v) for v in rng.integers(8, 41, 8)] + [40]:
            probs = np.concatenate([[0.5, 1.0], rng.uniform(0.5, 1.0, 4)])
            pmfs = [exact_pmf(r, float(prob)) for prob in probs]
            # k = 0 and k = r + 1 are the thresholds where one tail is empty
            for k in range(r + 2):
                upper, lower = binomial_tails(r, k, probs)
                for i, pmf in enumerate(pmfs):
                    assert abs(upper[i] - sum(pmf[k:], Fraction(0))) <= 1e-12, (r, k, probs[i])
                    assert abs(lower[i] - sum(pmf[:k], Fraction(0))) <= 1e-12, (r, k, probs[i])

    def test_tails_at_the_edges_are_exact(self):
        r = 30
        upper, lower = binomial_tails(r, 0, [0.5, 0.8, 1.0])
        assert upper.tolist() == pytest.approx([1.0] * 3, abs=1e-15)
        assert lower.tolist() == [0.0] * 3
        upper, lower = binomial_tails(r, r + 1, [0.5, 0.8, 1.0])
        assert upper.tolist() == [0.0] * 3
        # P0 = 1: every swap test gives 0, so K = r exactly
        upper, lower = binomial_tails(r, r, [1.0])
        assert (upper[0], lower[0]) == (1.0, 0.0)

    def test_tails_chunks_agree_with_one_row(self):
        probs = np.linspace(0.5, 1.0, 200)
        upper, lower = binomial_tails(2603, 1400, probs)  # 26 rows per chunk
        for i in (0, 25, 26, 117, 199):
            one_upper, one_lower = binomial_tails(2603, 1400, probs[i:i + 1])
            assert (upper[i], lower[i]) == (one_upper[0], one_lower[0])

    @pytest.mark.parametrize("r", [1, 2, 7, 40, 408])
    @pytest.mark.parametrize("theta", [-0.5, 0.0, 0.1, 0.15625, 0.5, 0.75, 1.0, 1.5])
    def test_threshold_is_the_rule_on_every_count(self, r, theta):
        k = referee_threshold(r, theta)
        says_one = [bool(referee_rule(j / r, theta)) for j in range(r + 1)]
        assert says_one == [j >= k for j in range(r + 1)]
        if theta <= 0.0:
            assert k == 0  # the clip lifts every estimate to 0 >= theta
        if theta > 1.0:
            assert k == r + 1

    def test_threshold_tie_goes_to_one(self):
        # 3 of 4 zeros estimate exactly 1/2
        assert referee_threshold(4, 0.5) == 3


def reference_draws(trials: int, q, group, u) -> np.ndarray:
    """Inversion of each group's whole CDF row: the number of k < trials
    with F(k) <= u, F the running sum of the pmf over 0..trials."""
    log_fact = _log_factorials(trials)
    rows = np.cumsum(_binomial_pmf(log_fact, np.asarray(q, dtype=float)[:, None], 0, trials + 1),
                     axis=1)
    return np.array([np.searchsorted(rows[g, :trials], x, side="right") for g, x in zip(group, u)])


class TestBinomialDraws:
    QS = [0.0, 1e-4, 0.0312, 0.3, 0.5, 0.9, 1.0]

    @pytest.mark.parametrize("trials", [1, 20, 200])
    def test_counts_follow_the_exact_binomial_pmf(self, trials):
        # 20 000 draws per q at one seed: every count's frequency lies within
        # 5 standard errors of the exact pmf plus one draw (a count of pmf
        # 2e-7 may be drawn once), and is 0 where the pmf is 0; the mean lies
        # within 5 standard errors of trials * q
        n = 20_000
        group = np.repeat(np.arange(len(self.QS)), n)
        counts = _binomial_draws(trials, np.array(self.QS), group, np.arange(group.size),
                                 uniforms(2026, group.size))
        assert counts.min() >= 0 and counts.max() <= trials
        for g, q in enumerate(self.QS):
            seen = np.bincount(counts[group == g], minlength=trials + 1)
            for k, pk in enumerate(exact_pmf(trials, q)):
                pk = float(pk)
                assert abs(seen[k] - n * pk) <= 5 * math.sqrt(n * pk * (1 - pk)) + (pk > 0), (q, k)
            mean = float(counts[group == g].mean())
            assert abs(mean - trials * q) <= 5 * math.sqrt(trials * q * (1 - q) / n), q

    @pytest.mark.parametrize("trials", [1, 20, 37])
    def test_extreme_uniforms_stay_in_range(self, trials):
        # the largest uniform is 1 - 2^-53: q = 1 gives trials, never trials + 1
        u = np.array([0.0, 1.0 - 2.0**-53] * 3)
        group = np.repeat(np.arange(3), 2)
        counts = _binomial_draws(trials, np.array([0.0, 0.5, 1.0]), group, np.arange(6), u)
        assert counts.tolist() == [0, 0, 0, trials, trials, trials]

    @pytest.mark.parametrize("chunk", [2, 40, 200, 1 << 16])
    def test_draws_are_whole_row_inversions_at_any_step(self, monkeypatch, chunk):
        # 41 groups of 0..60 draws each.  CHUNK = 2 takes one draw and one
        # count a step, 40 two draws and up to 15 or 31 counts, 200 twelve
        # draws and up to 15..63 counts, and 2^16 every draw and all 37
        # counts at once: the running sum, carried from run to run and
        # restarted in each slice, is the whole row's to the bit
        monkeypatch.setattr(fingerprint, "CHUNK", chunk)
        monkeypatch.setattr(embeddings, "CHUNK", chunk)
        rng = np.random.default_rng(8)
        q = np.concatenate([[0.0, 1.0], rng.random(39)])
        group = rng.integers(0, q.size, 1200)
        u = uniforms(9, group.size)
        counts = _binomial_draws(37, q, group, np.argsort(group, kind="stable"), u)
        assert np.array_equal(counts, reference_draws(37, q, group, u))


def eq_worst_error(r: int) -> float:
    """Worst-pair error of the EQ protocol, (delta0, delta1) = (1/16, 1/4),
    theta at the midpoint, with r copies."""
    k = referee_threshold(r, (1 / 16 + 1 / 4) / 2)
    upper, lower = binomial_tails(r, k, [0.5 + 1 / 32, 0.5 + 1 / 8])
    return max(upper[0], lower[1])


class TestExactEqCounts:
    def test_error_at_the_hoeffding_count(self):
        assert required_repetitions(1 / 16, 1 / 4, 1 / 3) == 408
        assert eq_worst_error(408) == pytest.approx(0.0312, abs=1e-4)
        e, m = eq_states(3)
        report = run_protocol(protocol_from_embedding(e, 1 / 3), m, trials=10, seed=0)
        assert report.exact_error == pytest.approx(eq_worst_error(408), abs=1e-12)

    def test_error_is_not_monotone_in_copies(self):
        errors = [eq_worst_error(r) for r in (25, 26, 27)]
        assert errors == pytest.approx([0.317, 0.375, 0.329], abs=5e-4)

    @pytest.mark.parametrize("eps, hoeffding, least, stable", [
        (1 / 3, 408, 25, 39),
        (0.1, 682, 184, 205),
        (0.01, 1206, 604, 627),
    ])
    def test_least_and_stable_counts(self, eps, hoeffding, least, stable):
        # Hoeffding's bound holds at every r >= its count, so the scan stops there.
        assert required_repetitions(1 / 16, 1 / 4, eps) == hoeffding
        safe = [eq_worst_error(r) <= eps for r in range(1, hoeffding + 1)]
        assert safe.index(True) + 1 == least
        assert len(safe) - safe[::-1].index(False) + 1 == stable


def _one_copy_cases():
    # The 1x1 protocols of acceptance criterion 9: one copy of random states.
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(3):
        d = int(rng.integers(2, 10))
        alpha, beta = rng.standard_normal(d), rng.standard_normal(d)
        alpha /= np.linalg.norm(alpha)
        beta /= np.linalg.norm(beta)
        delta0 = float(alpha @ beta) ** 2
        e = ThresholdEmbedding(alpha[None, :], beta[None, :], delta0, 1.0)
        cases.append((FingerprintProtocol(e, 1, (delta0 + 1.0) / 2.0), SignMatrix([[1]])))
    return cases


def _law_case(kind: str, i: int):
    if kind == "eq":
        e, m = eq_states(i)
        return protocol_from_embedding(e, 1 / 3), m, 200
    if kind == "ham":
        ham = ham_parity_embedding(5, 2).embedding
        return protocol_from_embedding(ham, 1 / 3), ham_matrix(5, 2), 100
    return (*_one_copy_cases()[i], 100_000)


@pytest.mark.parametrize("kind, i", [*(("eq", n) for n in range(2, 7)), ("ham", 0),
                                     *(("one-copy", i) for i in range(3))])
def test_exact_law_within_3se_of_reference_sampler(kind, i):
    """Pairs with the same exact error q are pooled; the reference sampler's
    and run_protocol's error frequencies over each pool lie within 3 standard
    errors of q, and exactly 0 where q is 0."""
    p, m, trials = _law_case(kind, i)
    exact = exact_pair_errors(p, m)
    reference = reference_run(p, m, trials, seed=11)
    run = run_protocol(p, m, trials, seed=11)
    support = m.entries != 0
    assert np.array_equal(np.isnan(exact), ~support)
    assert run.exact_error == np.nanmax(exact)
    if kind == "one-copy":
        # one copy errs on [[+1]] exactly when the swap test gives 0
        alpha, beta = p.embedding.alphas[0], p.embedding.betas[0]
        assert exact[0, 0] == pytest.approx(swap_test_prob(alpha, beta), abs=1e-12)
    pools = np.round(exact[support], 12)
    for q in sorted(set(pools.tolist())):
        pool = pools == q
        se = math.sqrt(q * (1 - q) / (pool.sum() * trials))
        for sampled in (reference, run.per_pair_error):
            freq = float(sampled[support][pool].mean())
            assert abs(freq - q) <= 3 * se, (kind, i, q, freq, se)
