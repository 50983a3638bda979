import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim.bounds import (
    GROTHENDIECK_K,
    _factored_start,
    dot_allowance,
    forster_bound,
    linial_bound,
    margin_report,
    margin_upper_bound,
    maximize_margin_heuristic,
    qent_lower_bound,
    repetition_lower_bound,
)
from qfpsim.embeddings import SignMatrix, verify_realization
from qfpsim.problems import eq_matrix, ip_matrix


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
    """The factored start with every zero row at e_1, which is what
    ``_factored_start`` must still return when the cut zeroes no row."""
    u, s, vt = np.linalg.svd(md, full_matrices=False)
    k = min(d, s.size)
    rows = np.zeros((sum(md.shape), d))
    rows[:, :k] = np.vstack([u, vt.T])[:, :k] * np.sqrt(s[:k])
    norms = np.linalg.norm(rows, axis=1)
    live = np.concatenate([md.any(axis=1), md.any(axis=0)]) & (norms > 0.0)
    rows[live] /= norms[live, None]
    rows[~live] = np.eye(1, d)
    return rows[: md.shape[0]], rows[md.shape[0] :]


class TestForsterBound:
    def test_ip_k1(self):
        assert forster_bound(ip_matrix(1)) == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_ip_k3(self):
        assert forster_bound(ip_matrix(3)) == pytest.approx(1 / math.sqrt(8), abs=1e-6)

    def test_all_ones(self):
        assert forster_bound(SignMatrix(np.ones((2, 2)))) == pytest.approx(1.0, abs=1e-9)

    def test_promise_refused(self):
        with pytest.raises(ValueError, match="total"):
            forster_bound(SignMatrix([[1, 0], [1, 1]]))


class TestLinialBound:
    def test_2x2_mixed(self):
        m = SignMatrix([[1, 1], [1, -1]])
        assert linial_bound(m) == pytest.approx(GROTHENDIECK_K * 2 / 4)

    def test_all_ones_clamped(self):
        assert linial_bound(SignMatrix(np.ones((2, 2)))) == 1.0

    def test_1x1_clamped(self):
        assert linial_bound(SignMatrix([[-1]])) == 1.0

    def test_promise_refused(self):
        with pytest.raises(ValueError, match="total"):
            linial_bound(SignMatrix([[1, 0], [1, 1]]))


class TestMarginUpperBound:
    def test_ip_k2(self):
        assert margin_upper_bound(ip_matrix(2)) == pytest.approx(0.5, abs=1e-6)

    def test_forster_wins_on_2x2(self):
        m = SignMatrix([[1, 1], [1, -1]])
        assert margin_upper_bound(m) == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_eq_consistent_with_explicit_construction(self):
        assert margin_upper_bound(eq_matrix(2)) >= 1 / 3 - 1e-9

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
        r = maximize_margin_heuristic(m, d=5)
        assert r.gamma >= 0.30
        assert r.gamma <= margin_upper_bound(m) + 1e-6
        assert verify_realization(r, m).valid

    def test_trivial_1x1(self):
        r = maximize_margin_heuristic(SignMatrix([[1]]), d=1)
        assert r.gamma == pytest.approx(1.0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            maximize_margin_heuristic(eq_matrix(1), d=0)

    def test_supports_promise_matrices(self):
        m = SignMatrix([[1, 0], [0, -1]])
        r = maximize_margin_heuristic(m, d=2)
        assert r.gamma > 0.9  # the two constrained pairs are independent

    @pytest.mark.parametrize("seed", range(3))
    def test_sound_against_upper_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = SignMatrix(rng.choice([-1, 1], size=(4, 4)).astype(np.int8))
        try:
            r = maximize_margin_heuristic(m, d=5)
        except RuntimeError:
            return
        assert r.gamma <= margin_upper_bound(m) + 1e-6

    @pytest.mark.parametrize("m, exact", KNOWN_MARGINS)
    def test_factored_start_reaches_known_margin(self, m, exact):
        d = min(m.rows, m.cols) + 1
        r = maximize_margin_heuristic(m, d)
        assert exact - 2 * dot_allowance(d) <= r.gamma <= exact
        assert verify_realization(r, m).valid
        rep = margin_report(m, heuristic=True)
        assert rep.heuristic_lower <= rep.upper

    def test_cut_rows_start_at_their_best_response(self):
        # At d=1 the cut zeroes the second row on both sides; e_1 there gives
        # the pair the wrong sign, which a one-dimensional ascent cannot flip.
        m = SignMatrix([[1, 0], [0, -1]])
        r = maximize_margin_heuristic(m, 1)
        assert r.gamma == 1.0 - dot_allowance(1)
        assert verify_realization(r, m).valid

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(sign_matrices(), st.integers(0, 1))
    def test_start_unchanged_at_full_rank_dimension(self, m, extra):
        md = m.dense()
        d = np.linalg.matrix_rank(md) + extra
        for got, want in zip(_factored_start(md, d), uncut_start(md, d)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(sign_matrices())
    def test_witness_sound_on_any_sign_matrix(self, m):
        r = maximize_margin_heuristic(m, min(m.rows, m.cols) + 1)
        report = verify_realization(r, m)
        assert report.valid and report.achieved_margin >= r.gamma
        if m.is_total:
            assert r.gamma <= forster_bound(m)


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
        rep = margin_report(eq_matrix(2), heuristic=True, d=5)
        assert rep.heuristic_lower is not None
        assert rep.heuristic_lower <= rep.upper + 1e-6

    def test_wide_and_tall_agree(self):
        # 12x40 has a smaller side of 12, so the enumeration cap allows linial
        rng = np.random.default_rng(5)
        entries = rng.choice([-1, 1], size=(12, 40)).astype(np.int8)
        wide = margin_report(SignMatrix(entries))
        assert wide.linial is not None
        assert wide == margin_report(SignMatrix(entries.T))

    def test_promise_needs_heuristic(self):
        m = SignMatrix([[1, 0], [0, -1]])
        with pytest.raises(ValueError, match="promise"):
            margin_report(m)
        rep = margin_report(m, heuristic=True, d=2)
        assert rep.forster is None and rep.upper is None
        assert rep.gamma_source == "heuristic_lower"
