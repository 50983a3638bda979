"""The one rounding model: every unit, threshold and margin allowance comes from
``linalg.unit_allowance`` and ``linalg.dot_allowance`` of the dimension, so a
verifier accepts no claim its own rounding cannot explain."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfpsim import compiler, io
from qfpsim.bounds import maximize_margin_heuristic
from qfpsim.cli import main
from qfpsim.compiler import VectorSystem, assemble_shared_randomness_states, compile_one_way
from qfpsim.embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    realization_to_embedding,
    verify_realization,
    verify_threshold_embedding,
)
from qfpsim.linalg import dot_allowance, unit_allowance, unit_rows
from qfpsim.problems import (
    eq_matrix,
    eq_parity_one_way_protocol,
    eq_parity_protocol,
    ham_matrix,
    ip_matrix,
)

U = 2.0**-53  # the unit roundoff of float64


class TestAllowances:
    @pytest.mark.parametrize("d", [1, 2, 9, 32, 256, 4096])
    def test_formulas(self, d):
        assert unit_allowance(d) == (d / 2 + 2) * U
        assert dot_allowance(d) == (2 * d + 4) * U
        assert dot_allowance(d, squared=True) == 2 * dot_allowance(d) + 2 * U

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=80),
                    min_size=1, max_size=8))
    def test_rounded_unit_vectors_pass_the_unit_check(self, points):
        # (2t, |t|^2 - 1) / (|t|^2 + 1) is an exact rational unit vector for any
        # integer t (inverse stereographic projection); its entries, each rounded
        # to float64, must pass at every dimension
        d = max(len(t) for t in points) + 1
        rows = []
        for t in points:
            t = t + [0] * (d - 1 - len(t))
            s = sum(v * v for v in t)
            rows.append([float(Fraction(v, 1) * 2 / (s + 1)) for v in t]
                        + [float(Fraction(s - 1, s + 1))])
        rows = np.array(rows)
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        assert np.all(np.abs(norms - 1.0) <= unit_allowance(d))
        ThresholdEmbedding(rows, rows, 0.0, 1.0)


def eq3_document(tmp_path):
    path = tmp_path / "eq3.json"
    assert main(["compile", "--builtin", "eq", "--n", "3", "--out", str(path)]) == 0
    with open(path) as fh:
        return json.load(fh)


def write(tmp_path, doc):
    path = tmp_path / "edited.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


class TestClaimsRoundingCannotExplain:
    def test_thresholds_moved_by_9e_10_are_refused(self, tmp_path, capsys):
        # the old fixed 1e-9 accepted this document, and simulate sized its
        # protocol from the false thresholds
        doc = eq3_document(tmp_path)
        doc["payload"]["delta0"] -= 9e-10
        doc["payload"]["delta1"] += 9e-10
        path = write(tmp_path, doc)
        capsys.readouterr()
        assert main(["verify", "--builtin", "eq", "--n", "3", "--embedding", path]) == 0
        report = json.loads(capsys.readouterr().out)["payload"]
        assert report["valid"] is False
        assert main(["simulate", "--builtin", "eq", "--n", "3", "--embedding", path]) == 2
        assert "embedding is not valid for M" in capsys.readouterr().err

    @pytest.mark.parametrize("side, row", [("alphas", 5), ("betas", 2)])
    def test_a_row_scaled_by_1_plus_9e_10_is_named(self, tmp_path, capsys, side, row):
        # the compiled states, written as float64 alphas and betas
        doc = eq3_document(tmp_path)
        e = io.parse_embedding(doc)
        states = {"alphas": e.alphas, "betas": e.betas}
        states[side][row] *= 1 + 9e-10
        del doc["payload"]["system"]
        doc["payload"].update((name, io._float_block(rows)) for name, rows in states.items())
        path = write(tmp_path, doc)
        capsys.readouterr()
        for command in ("verify", "simulate"):
            assert main([command, "--builtin", "eq", "--n", "3", "--embedding", path]) == 1
            err = capsys.readouterr().err
            assert f"{side}[{row}] is not a unit vector (norm 1.0000000009" in err, err

    @pytest.mark.parametrize("m", [eq_matrix(3), ip_matrix(4), ham_matrix(4, 1)],
                             ids=["eq-3", "ip-4", "ham-4-1"])
    def test_margin_claims_against_the_heuristic_witness(self, m):
        witness = maximize_margin_heuristic(m)  # gamma = its margin less dot_allowance
        report = verify_realization(witness, m)
        assert report.valid and report.achieved_margin >= witness.gamma
        assert verify_threshold_embedding(realization_to_embedding(witness), m).valid
        over = report.achieved_margin + 10 * dot_allowance(witness.dimension)
        assert not verify_realization(Realization(witness.alphas, witness.betas, over), m).valid


@st.composite
def unit_row_pairs(draw):
    """Seeded Gaussian rows scaled to unit norm: 1-6 alphas and betas of 1-40 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 40))
    alphas, betas = (unit_rows(rng.standard_normal((draw(st.integers(1, 6)), d)))
                     for _ in range(2))
    return alphas, betas, rng


class TestClaimsAtTheComputedExtremes:
    @settings(max_examples=80, deadline=None)
    @given(unit_row_pairs())
    def test_thresholds(self, case):
        alphas, betas, rng = case
        sq = (alphas @ betas.T) ** 2
        # the pairs below a random cut in sorted order are the f=0 side
        order = np.argsort(sq, axis=None, kind="stable")
        entries = np.full(sq.size, -1, dtype=np.int8)
        entries[order[:rng.integers(1, sq.size + 1)]] = 1
        m = SignMatrix(entries.reshape(sq.shape))
        report = verify_threshold_embedding(ThresholdEmbedding(alphas, betas, 0.0, 1.0), m)
        delta0, delta1 = report.worst_zero_side, report.worst_one_side
        assume(delta0 < delta1 <= 1.0)
        tight = ThresholdEmbedding(alphas, betas, delta0, delta1)
        assert verify_threshold_embedding(tight, m).valid
        off = 10 * dot_allowance(alphas.shape[1], squared=True)
        if delta0 - off >= 0.0:
            low = ThresholdEmbedding(alphas, betas, delta0 - off, delta1)
            assert not verify_threshold_embedding(low, m).valid
        if delta1 + off <= 1.0:
            high = ThresholdEmbedding(alphas, betas, delta0, delta1 + off)
            assert not verify_threshold_embedding(high, m).valid

    @settings(max_examples=80, deadline=None)
    @given(unit_row_pairs())
    def test_margins(self, case):
        alphas, betas, _ = case
        m = SignMatrix(np.where(alphas @ betas.T >= 0, 1, -1).astype(np.int8))
        achieved = verify_realization(Realization(alphas, betas, 1.0), m).achieved_margin
        assume(0.0 < achieved <= 1.0)
        assert verify_realization(Realization(alphas, betas, achieved), m).valid
        over = achieved + 10 * dot_allowance(alphas.shape[1])
        assume(over <= 1.0)
        assert not verify_realization(Realization(alphas, betas, over), m).valid


def exact_worst_sides(e: ThresholdEmbedding, m: SignMatrix) -> tuple[Fraction, Fraction]:
    """The largest squared inner product over f=0 pairs and the smallest over
    f=1 pairs, in exact rationals of the float entries as written."""
    alphas, betas = ([[Fraction(float(v)) for v in row] for row in np.asarray(side)]
                     for side in (e.alphas, e.betas))
    sq = [[sum(a * b for a, b in zip(alpha, beta)) ** 2 for beta in betas] for alpha in alphas]
    zero = [sq[x][y] for x, y in zip(*np.nonzero(m.entries == 1))]
    one = [sq[x][y] for x, y in zip(*np.nonzero(m.entries == -1))]
    return max(zero, default=Fraction(0)), min(one, default=Fraction(1))


def check_against_exact(e: ThresholdEmbedding, m: SignMatrix) -> None:
    """The verifier's worst sides and the written thresholds both lie within
    the squared allowance of the exact worst sides."""
    tol = dot_allowance(e.dimension, squared=True)
    report = verify_threshold_embedding(e, m)
    assert report.valid
    exact_zero, exact_one = exact_worst_sides(e, m)
    for computed, exact in ((report.worst_zero_side, exact_zero), (e.delta0, exact_zero),
                            (report.worst_one_side, exact_one), (e.delta1, exact_one)):
        assert abs(Fraction(computed) - exact) <= tol, (computed, float(exact), tol)


@st.composite
def zero_one_systems(draw):
    """A 0/1 int8 vector system of |R| 1-3, dimension 1-4 and 1-5 inputs per
    side at norm bound sqrt(dim), as ``compile_one_way`` sets it, with the
    sign matrix that splits its squared acceptance at the midpoint (pairs at
    the midpoint in the promise)."""
    nr, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    a, b = (np.array(draw(st.lists(st.integers(0, 1), min_size=nr * k * dim,
                                   max_size=nr * k * dim)), dtype=np.int8).reshape(nr, k, dim)
            for k in (draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    v = VectorSystem(a, b, math.sqrt(dim))
    sq = (v.acceptance_matrix() / v.norm_bound**2) ** 2
    assume(sq.min() < sq.max())
    cut = (sq.min() + sq.max()) / 2
    return v, SignMatrix(np.where(sq < cut, 1, np.where(sq > cut, -1, 0)).astype(np.int8))


class TestExactReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("build", [eq_parity_protocol, eq_parity_one_way_protocol],
                             ids=["smp", "one-way"])
    def test_compiled_eq(self, n, build):
        m = eq_matrix(n)
        check_against_exact(assemble_shared_randomness_states(compile_one_way(build(n)), m), m)

    @settings(max_examples=60, deadline=None)
    @given(zero_one_systems())
    def test_random_zero_one_systems(self, case):
        v, m = case
        check_against_exact(assemble_shared_randomness_states(v, m), m)

    def test_delta1_rounding_above_1_is_clipped(self, monkeypatch):
        # fl(sqrt(3))^2 < 3, so the all-ones pair's squared ratio rounds to
        # 1.0000000000000004, within dot_allowance(3, squared=True) of 1
        ones = np.ones((1, 1, 3), dtype=np.int8)
        v = VectorSystem(ones, np.concatenate([ones, 0 * ones], axis=1), math.sqrt(3))
        m = SignMatrix(np.array([[-1, 1]], dtype=np.int8))
        e = assemble_shared_randomness_states(v, m)
        assert (e.delta0, e.delta1) == (0.0, 1.0)
        check_against_exact(e, m)
        # with no allowance the excess is not rounding, and is refused
        monkeypatch.setattr(compiler, "dot_allowance", lambda d, squared=False: 0.0)
        with pytest.raises(ValueError, match=r"delta1 <= 1, got \(0.0, 1.0000000000000004\)"):
            assemble_shared_randomness_states(v, m)
