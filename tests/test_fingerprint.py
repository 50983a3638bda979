import math
from fractions import Fraction

import numpy as np
import pytest

from qfpsim.compiler import assemble_shared_randomness_states, compile_one_way
from qfpsim.embeddings import SignMatrix, ThresholdEmbedding, verify_threshold_embedding
from qfpsim.fingerprint import (
    FingerprintProtocol,
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
    the exact law and of qfpsim's streams: each trial draws, from numpy's own
    generator, the referee's count of zero outcomes,
    Bin(r, P0) with P0 = 1/2 + <alpha_x, beta_y>^2 / 2, and applies
    ``referee_rule`` to it.  NaN on promise pairs."""
    r = p.repetitions
    alphas, betas = np.asarray(p.embedding.alphas), np.asarray(p.embedding.betas)
    p_zero = np.minimum(0.5 + (alphas @ betas.T) ** 2 / 2.0, 1.0)
    rng = np.random.default_rng(seed)
    errors = np.full((m.rows, m.cols), np.nan)
    for x in range(m.rows):
        cols = np.flatnonzero(m.entries[x])
        zeros = rng.binomial(r, p_zero[x, cols][:, None], size=(cols.size, trials))
        expected = m.entries[x, cols] == -1  # -1 encodes f(x,y)=1
        errors[x, cols] = (referee_rule(zeros / r, p.theta) != expected[:, None]).mean(axis=1)
    return errors


def swap_circuit_zero_prob(alpha, beta) -> float:
    """P[the ancilla reads 0] in a statevector run of the swap-test circuit
    on |0>|alpha>|beta>: H on the ancilla, a SWAP of the two registers
    controlled by it, then H again, which leaves (|alpha beta> + |beta alpha>)/2
    on ancilla 0.  An oracle for ``swap_test_prob`` that does not use its
    formula; real states of one dimension."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    state = np.zeros((2, alpha.size, beta.size))  # (ancilla, register 1, register 2)
    state[0] = np.outer(alpha, beta)
    state = np.tensordot(h, state, axes=1)
    state[1] = state[1].T  # where the ancilla is 1, the registers swap
    state = np.tensordot(h, state, axes=1)
    return float(np.sum(state[0] ** 2))


def report_errors(report) -> np.ndarray:
    """Each pair's error as a ``run_protocol`` report gives it, NaN on
    promise pairs."""
    return np.where(report.pair_group < 0, np.nan, report.group_error[report.pair_group])


def eq_states(n: int) -> tuple[ThresholdEmbedding, SignMatrix]:
    m = eq_matrix(n)
    return assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(n)), m), m


class TestSwapTestProb:
    def test_orthogonal(self):
        assert swap_test_prob([1, 0], [0, 1]) == 0.5

    def test_identical(self):
        # the rounded |+> state has <a, a> = 1 + 1 ulp in any summation order:
        # P0 is clipped to 1
        for a in ([1, 0], np.full(2, 2 ** -0.5)):
            assert swap_test_prob(a, a) == 1.0

    def test_formula(self):
        assert swap_test_prob([1, 0], [0.6, 0.8]) == pytest.approx(0.68)

    def test_sign_invariant(self):
        assert swap_test_prob([1, 0], [0.6, 0.8]) == swap_test_prob([1, 0], [-0.6, 0.8])

    def test_matches_the_swap_circuit(self):
        # 30 random real pairs at each dimension 2..8
        rng = np.random.default_rng(17)
        for d in range(2, 9):
            for _ in range(30):
                alpha, beta = unit_rows(rng.standard_normal((2, d)))
                circuit = swap_circuit_zero_prob(alpha, beta)
                assert abs(swap_test_prob(alpha, beta) - circuit) <= 1e-14, (d, alpha, beta)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            swap_test_prob([1, 1], [1, 0])
        # checked within linalg.unit_allowance(2) = 3u of norm 1, like every unit row
        with pytest.raises(ValueError, match="unit"):
            swap_test_prob([1 + 1e-7, 0], [1, 0])

    def test_rejects_states_of_different_dimensions(self):
        with pytest.raises(ValueError, match=r"^state dimensions differ: \(2,\) vs \(3,\)$"):
            swap_test_prob([1, 0], [1, 0, 0])


class TestRequiredRepetitions:
    def test_full_gap(self):
        assert required_repetitions(0, 1, 1 / 3) == math.ceil(8 * math.log(6)) == 15

    def test_halving_gap_quadruples(self):
        exact = 8 * math.log(6)
        assert required_repetitions(0, 0.5, 1 / 3) == math.ceil(exact * 4)
        assert required_repetitions(0, 0.25, 1 / 3) == math.ceil(exact * 16)

    def test_narrow_gap(self):
        assert required_repetitions(0, 0.1875, 1 / 3) == 408

    def test_counts_near_the_float64_limits(self):
        # ln 2 - ln eps is finite at the least eps, where 2/eps overflows
        assert required_repetitions(1 / 16, 1 / 4, 5e-324) == 169560
        # a gap whose square is 0, and one whose count overflows
        for gap in (1e-200, 1e-160):
            with pytest.raises(ValueError, match="exceeds float64"):
                required_repetitions(0, gap, 1 / 3)

    def test_preconditions(self):
        # the thresholds are checked by the rule every embedding is checked by
        for delta0, delta1 in ((0.5, 0.5), (-0.1, 0.5), (0.2, 1.1), (float("nan"), 0.5)):
            with pytest.raises(ValueError, match="thresholds must satisfy 0 <= delta0"):
                required_repetitions(delta0, delta1, 1 / 3)
        with pytest.raises(ValueError, match="eps must lie"):
            required_repetitions(0, 1, 0.7)


class TestRefereeDecide:
    """How the referee decides: ``referee_rule`` on the fraction K/r of zero
    outcomes, as ``referee_threshold`` applies it to every count."""

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

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError, match="^repetitions must be >= 1$"):
            FingerprintProtocol(eq_orthonormal_embedding(4), 0, 0.5)


class TestRunProtocol:
    def test_eq_error_within_eps(self):
        m = eq_matrix(2)
        emb = eq_orthonormal_embedding(4)
        reps = required_repetitions(0.0, 1.0, 1 / 3)
        p = FingerprintProtocol(emb, reps, 0.5)
        report = run_protocol(p, m, trials=200)
        eps = 1 / 3
        assert report.exact_error <= eps + 3 * math.sqrt(eps * (1 - eps) / 200)
        assert p.qubits_per_copy == 2
        assert p.total_qubits == 2 * 2 * reps

    def test_single_repetition_diagonal_is_exact(self):
        m = eq_matrix(1)
        emb = eq_orthonormal_embedding(2)
        p = FingerprintProtocol(emb, 1, 0.5)
        report = run_protocol(p, m, trials=100)
        # x == y pairs have inner product 1: the swap test is deterministic
        assert report_errors(report)[0, 0] == 0.0
        assert report_errors(report)[1, 1] == 0.0
        # P0 = 1/2 off the diagonal, where one copy errs iff the test gives 0
        exact = exact_pair_errors(p, m)
        assert exact[0, 0] == exact[1, 1] == 0.0
        assert exact[0, 1] == exact[1, 0] == report.exact_error == 0.5

    def test_deterministic(self):
        m = eq_matrix(1)
        p = FingerprintProtocol(eq_orthonormal_embedding(2), 20, 0.5)
        a = run_protocol(p, m, trials=50)
        b = run_protocol(p, m, trials=50)
        assert np.array_equal(a.pair_group, b.pair_group)
        assert np.array_equal(a.group_error, b.group_error)
        assert a.exact_error == b.exact_error

    def test_invalid_embedding_rejected(self):
        m = eq_matrix(1)
        e1 = np.zeros((2, 2))
        e1[:, 0] = 1.0
        p = FingerprintProtocol(ThresholdEmbedding(e1, e1, 0.3, 0.9), 10, 0.5)
        with pytest.raises(ValueError, match="not valid"):
            run_protocol(p, m, trials=10)

    def test_error_matches_exact_binomial_tail(self):
        # Orthogonal states: P0 = 1/2, so K ~ Bin(4, 1/2) and the referee errs
        # (estimate 2K/4 - 1 >= 1/2) iff K >= 3.
        m = eq_matrix(2)
        p = FingerprintProtocol(eq_orthonormal_embedding(4), 4, 0.5)
        report = run_protocol(p, m, trials=4000)
        exact = sum(math.comb(4, k) for k in (3, 4)) / 2**4
        assert exact == 5 / 16
        errors = report_errors(report)
        off = ~np.eye(4, dtype=bool)
        assert errors[off].tolist() == pytest.approx([exact] * 12, abs=1e-15)
        assert np.all(errors[~off] == 0.0)
        assert report.exact_error == pytest.approx(exact, abs=1e-15)

    def test_inner_product_overshoot_does_not_raise(self):
        # A unit state whose computed <a, a>^2 is 1 + ulp gives P0 > 1, whose
        # log(1 - P0) in the binomial pmf is NaN unless P0 is clipped.
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a = rng.standard_normal(8)
            a = (a / np.linalg.norm(a))[None, :]
            if 0.5 + (a @ a.T)[0, 0] ** 2 / 2 > 1.0:
                break
        else:
            pytest.fail("no unit state with P0 > 1 found")
        p = FingerprintProtocol(ThresholdEmbedding(a, a, 0.0, 1.0), 10, 0.5)
        report = run_protocol(p, SignMatrix([[-1]]), trials=20)
        assert report.exact_error == 0.0

    def test_promise_pairs_excluded(self):
        m = SignMatrix([[-1, 0], [0, -1]])
        emb = eq_orthonormal_embedding(2)
        p = FingerprintProtocol(emb, 10, 0.5)
        report = run_protocol(p, m, trials=20)
        assert np.array_equal(report.pair_group == -1, m.entries == 0)
        exact = exact_pair_errors(p, m)
        assert np.array_equal(np.isnan(exact), m.entries == 0)
        assert report.exact_error == 0.0

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
        report = run_protocol(protocol_from_embedding(e, 1 / 3), m, trials=10)
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
    error frequency over each pool lies within 3 standard errors of q, and
    is exactly 0 where q is 0."""
    p, m, trials = _law_case(kind, i)
    exact = exact_pair_errors(p, m)
    reference = reference_run(p, m, trials, seed=11)
    support = m.entries != 0
    assert np.array_equal(np.isnan(exact), ~support)
    assert run_protocol(p, m, trials).exact_error == np.nanmax(exact)
    if kind == "one-copy":
        # one copy errs on [[+1]] exactly when the swap test gives 0
        alpha, beta = p.embedding.alphas[0], p.embedding.betas[0]
        assert exact[0, 0] == pytest.approx(swap_test_prob(alpha, beta), abs=1e-12)
    pools = np.round(exact[support], 12)
    for q in sorted(set(pools.tolist())):
        pool = pools == q
        se = math.sqrt(q * (1 - q) / (pool.sum() * trials))
        freq = float(reference[support][pool].mean())
        assert abs(freq - q) <= 3 * se, (kind, i, q, freq, se)
