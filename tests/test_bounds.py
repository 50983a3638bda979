import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim._kernels import margin_ascent
from qfpsim.bounds import (
    GROTHENDIECK_K,
    _factored_start,
    dot_allowance,
    exit_allowance,
    forster_bound,
    linial_bound,
    margin_report,
    maximize_margin_heuristic,
    qent_lower_bound,
    repetition_lower_bound,
)
from qfpsim.embeddings import SignMatrix, verify_realization
from qfpsim.linalg import linf_to_l1_norm, operator_norm
from qfpsim.problems import eq_matrix, ham_matrix, ip_matrix


def random_sign_matrix(rng, max_side=12):
    rows, cols = rng.integers(1, max_side + 1, size=2)
    return SignMatrix(rng.choice([-1, 1], size=(rows, cols)).astype(np.int8))


# The paper's families with their exact margins: N/(3N-4) for EQ on N = 2^n
# inputs, 2^(-k/2) for IP on k bits.
KNOWN_MARGINS = [
    pytest.param(eq_matrix(n), 2**n / (3 * 2**n - 4), id=f"eq-{n}") for n in range(1, 7)
] + [pytest.param(ip_matrix(k), 2 ** (-k / 2), id=f"ip-{k}") for k in range(1, 7)]


@st.composite
def sign_matrices(draw):
    """{-1, 0, +1} matrices up to 12x12, total about half the time, with up to
    two all-zero rows and columns."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = (-1, 1) if draw(st.booleans()) else (-1, 0, 1)
    cells = draw(st.lists(st.sampled_from(values), min_size=rows * cols, max_size=rows * cols))
    entries = np.array(cells, dtype=np.int8).reshape(rows, cols)
    entries[draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0
    entries[:, draw(st.lists(st.integers(0, cols - 1), max_size=2))] = 0
    if not entries.any():
        entries[0, 0] = 1
    return SignMatrix(entries)


def uncut_start(md, d):
    """The factored start in d columns, with every zero row at e_1: at
    d = min side + 1, ``_factored_start`` must return exactly this."""
    u, s, vt = np.linalg.svd(md, full_matrices=False)
    k = min(d, s.size)
    rows = np.zeros((sum(md.shape), d))
    rows[:, :k] = np.vstack([u, vt.T])[:, :k] * np.sqrt(s[:k])
    norms = np.linalg.norm(rows, axis=1)
    live = np.concatenate([md.any(axis=1), md.any(axis=0)]) & (norms > 0.0)
    rows[live] /= norms[live, None]
    rows[~live] = np.eye(1, d)
    return rows[: md.shape[0]], rows[md.shape[0] :]


def promise_ip3():
    """IP on 3 bits with five pairs moved into the promise."""
    entries = ip_matrix(3).entries.copy()
    entries.flat[[0, 9, 18, 45, 63]] = 0
    return SignMatrix(entries)


def old_forster(m):
    """The total-matrix formula, verbatim, before promise matrices were admitted."""
    norm = operator_norm(m.dense())
    return min(1.0, norm / math.sqrt(m.rows * m.cols))


def old_linial(m):
    raw = GROTHENDIECK_K * linf_to_l1_norm(m.dense()) / (m.rows * m.cols)
    return min(1.0, raw)


def random_total(seed, shape):
    return SignMatrix(np.random.default_rng(seed).choice([-1, 1], size=shape).astype(np.int8))


TOTAL_MATRICES = (
    [pytest.param(ip_matrix(k), id=f"ip-{k}") for k in range(1, 5)]
    + [pytest.param(eq_matrix(n), id=f"eq-{n}") for n in range(1, 5)]
    + [pytest.param(ham_matrix(4, 1), id="ham-4-1")]
    + [pytest.param(random_total(s, shape), id=f"random-{shape[0]}x{shape[1]}-{s}")
       for s, shape in enumerate([(5, 7), (12, 12), (16, 22), (40, 20)])]
)


class TestForsterBound:
    def test_ip_k1(self):
        assert forster_bound(ip_matrix(1)) == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_ip_k3(self):
        assert forster_bound(ip_matrix(3)) == pytest.approx(1 / math.sqrt(8), abs=1e-6)

    def test_all_ones(self):
        assert forster_bound(SignMatrix(np.ones((2, 2)))) == pytest.approx(1.0, abs=1e-9)

    def test_promise_divides_by_nonzero_count(self):
        m = promise_ip3()
        want = np.linalg.norm(m.dense(), 2) * 8 / 59
        assert forster_bound(m) == pytest.approx(want, rel=1e-12)
        assert forster_bound(m) < 1.0

    @pytest.mark.parametrize("m", TOTAL_MATRICES)
    def test_total_matrices_unchanged(self, m):
        assert forster_bound(m) == old_forster(m)

    def test_block_diagonal_keeps_the_block_bound(self):
        # diag(EQ-3, EQ-3) has EQ-3's exact margin 0.4: the off-diagonal
        # blocks are all promise pairs
        eq3 = eq_matrix(3).entries
        m = SignMatrix(np.block([[eq3, np.zeros_like(eq3)], [np.zeros_like(eq3), eq3]]))
        assert forster_bound(m) == pytest.approx(forster_bound(eq_matrix(3)), abs=1e-12)
        r = maximize_margin_heuristic(m)
        assert verify_realization(r, m).valid
        assert r.gamma <= 0.4 <= margin_report(m).upper


class TestLinialBound:
    def test_2x2_mixed(self):
        m = SignMatrix([[1, 1], [1, -1]])
        assert linial_bound(m) == pytest.approx(GROTHENDIECK_K * 2 / 4)

    def test_all_ones_clamped(self):
        assert linial_bound(SignMatrix(np.ones((2, 2)))) == 1.0

    def test_1x1_clamped(self):
        assert linial_bound(SignMatrix([[-1]])) == 1.0

    def test_promise_divides_by_nonzero_count(self):
        m = promise_ip3()
        md = m.dense()
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 8)).reshape(8, -1)
        want = GROTHENDIECK_K * np.abs(md @ signs).sum(axis=0).max() / 59
        assert linial_bound(m) == pytest.approx(want, rel=1e-12)
        assert linial_bound(m) < 1.0

    @pytest.mark.parametrize("m", TOTAL_MATRICES)
    def test_total_matrices_unchanged(self, m):
        assert linial_bound(m) == old_linial(m)


class TestMarginUpperBound:
    def test_ip_k2(self):
        assert margin_report(ip_matrix(2)).upper == pytest.approx(0.5, abs=1e-6)

    def test_forster_wins_on_2x2(self):
        m = SignMatrix([[1, 1], [1, -1]])
        assert margin_report(m).upper == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_eq_consistent_with_explicit_construction(self):
        assert margin_report(eq_matrix(2)).upper >= 1 / 3 - 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_linial_below_kg_forster(self, seed):
        rng = np.random.default_rng(seed)
        m = random_sign_matrix(rng)
        assert linial_bound(m) <= GROTHENDIECK_K * forster_bound(m) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_sign_matrix(rng, max_side=8)
        perm = SignMatrix(
            m.entries[rng.permutation(m.rows)][:, rng.permutation(m.cols)]
        )
        assert forster_bound(perm) == pytest.approx(forster_bound(m), abs=1e-9)
        assert linial_bound(perm) == pytest.approx(linial_bound(m), abs=1e-9)


class TestHeuristic:
    def test_eq_4x4_reaches_explicit_margin(self):
        m = eq_matrix(2)
        r = maximize_margin_heuristic(m)
        assert r.gamma >= 0.30
        assert r.gamma <= margin_report(m).upper + 1e-6
        assert verify_realization(r, m).valid

    def test_trivial_1x1(self):
        r = maximize_margin_heuristic(SignMatrix([[1]]))
        assert r.gamma == pytest.approx(1.0)

    def test_supports_promise_matrices(self):
        m = SignMatrix([[1, 0], [0, -1]])
        r = maximize_margin_heuristic(m)
        assert r.gamma > 0.9  # the two constrained pairs are independent

    @pytest.mark.parametrize("seed", range(3))
    def test_sound_against_upper_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = SignMatrix(rng.choice([-1, 1], size=(4, 4)).astype(np.int8))
        try:
            r = maximize_margin_heuristic(m)
        except RuntimeError:
            return
        assert r.gamma <= margin_report(m).upper + 1e-6

    @pytest.mark.parametrize("m, exact", KNOWN_MARGINS)
    def test_factored_start_reaches_known_margin(self, m, exact):
        r = maximize_margin_heuristic(m)
        assert exact - 2 * dot_allowance(min(m.rows, m.cols) + 1) <= r.gamma <= exact
        assert verify_realization(r, m).valid
        rep = margin_report(m, heuristic=True)
        assert rep.heuristic_lower <= rep.upper

    @settings(max_examples=60, deadline=None)
    @given(sign_matrices())
    def test_start_unchanged_at_full_rank_dimension(self, m):
        md = m.dense()
        for got, want in zip(_factored_start(md), uncut_start(md, min(md.shape) + 1)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(sign_matrices())
    def test_witness_sound_on_any_sign_matrix(self, m):
        r = maximize_margin_heuristic(m)
        report = verify_realization(r, m)
        assert report.valid and report.achieved_margin >= r.gamma
        assert r.gamma <= forster_bound(m)
        assert r.gamma <= linial_bound(m)


def promise_12x12(seed):
    """A seeded 12x12 sign matrix, +-1 with about 20% of pairs in the promise."""
    rng = np.random.default_rng(seed)
    entries = rng.choice(np.array([-1, 1], dtype=np.int8), size=(12, 12))
    entries[rng.random((12, 12)) < 0.2] = 0
    return SignMatrix(entries)


class TestAscentSchedule:
    # The schedule before it was cut to 500 steps: the same step times
    # iterations and the same final step fraction, in 4x the steps.
    OLD_SCHEDULE = (2000, 0.05, 0.999, 1.0, 0.01)

    @pytest.mark.parametrize("m", [
        pytest.param(ham_matrix(5, 2), id="ham-5-2"),
        pytest.param(ham_matrix(4, 1), id="ham-4-1"),
        pytest.param(eq_matrix(2), id="eq-2"),
        pytest.param(eq_matrix(3), id="eq-3"),
    ] + [pytest.param(promise_12x12(seed), id=f"promise-12x12-{seed}") for seed in range(8)])
    def test_no_worse_than_the_old_schedule(self, m):
        """The witness margin is at least the old schedule's, unless the
        ascent stopped at the Forster exit, which only rounding can beat."""
        md = np.ascontiguousarray(m.dense())
        start = _factored_start(md)
        d = start[0].shape[1]
        old = margin_ascent(md, *start, *self.OLD_SCHEDULE)[2]
        target = forster_bound(m) - exit_allowance(d)
        assert maximize_margin_heuristic(m).gamma >= min(old, target) - dot_allowance(d)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_ip_stops_at_the_start_certified(self, k):
        m = ip_matrix(k)
        rep = margin_report(m, heuristic=True)
        d = min(m.rows, m.cols) + 1
        assert 0.0 <= rep.upper - rep.heuristic_lower <= exit_allowance(d)
        # the factored start already meets Forster, so it is the witness
        witness = maximize_margin_heuristic(m)
        start = _factored_start(np.ascontiguousarray(m.dense()))
        assert np.array_equal(witness.alphas, start[0])
        assert np.array_equal(witness.betas, start[1])


class TestAsymptoticLowerBounds:
    def test_repetitions_for_ip(self):
        for k in range(1, 5):
            gamma = 1 / math.sqrt(2**k)
            assert repetition_lower_bound(gamma) == pytest.approx(2**k, rel=1e-12)

    def test_repetition_edges(self):
        assert repetition_lower_bound(1.0) == 1.0
        assert repetition_lower_bound(0.1) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            repetition_lower_bound(0.0)

    def test_qent_values(self):
        assert qent_lower_bound(1 / math.sqrt(2**16)) == pytest.approx(2.0)
        assert qent_lower_bound(1.0) == 0.0
        assert qent_lower_bound(1 / 16) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            qent_lower_bound(1.5)


class TestMarginReport:
    def test_total_matrix(self):
        rep = margin_report(ip_matrix(2))
        assert rep.upper == pytest.approx(0.5, abs=1e-6)
        assert rep.gamma_source == "upper_bound"
        assert rep.repetition_lower == pytest.approx(4.0, rel=1e-6)

    def test_heuristic_bounded_by_upper(self):
        rep = margin_report(eq_matrix(2), heuristic=True)
        assert rep.heuristic_lower is not None
        assert rep.heuristic_lower <= rep.upper + 1e-6

    def test_wide_and_tall_agree(self):
        # 12x40 has a smaller side of 12, so the enumeration cap allows linial
        rng = np.random.default_rng(5)
        entries = rng.choice([-1, 1], size=(12, 40)).astype(np.int8)
        wide = margin_report(SignMatrix(entries))
        assert wide.linial is not None
        assert wide == margin_report(SignMatrix(entries.T))

    def test_promise_bounds_from_upper(self):
        m = promise_ip3()
        rep = margin_report(m)
        assert rep.upper == min(forster_bound(m), linial_bound(m)) < 1.0
        assert rep.heuristic_lower is None and rep.gamma_source == "upper_bound"
        assert rep.repetition_lower == repetition_lower_bound(rep.upper)
        assert rep.qent_lower_bits == qent_lower_bound(rep.upper)
        witnessed = margin_report(m, heuristic=True)
        assert witnessed.heuristic_lower <= witnessed.upper == rep.upper
