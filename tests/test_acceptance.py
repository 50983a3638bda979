"""Acceptance gate: ten end-to-end checks at fixed seeds and tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check
captured output) and asserts the same condition, so the suite doubles as a
human-readable scorecard.
"""

import math
import time

import numpy as np

from qfpsim.bounds import (
    GROTHENDIECK_K,
    forster_bound,
    linial_bound,
    margin_report,
    maximize_margin_heuristic,
    repetition_lower_bound,
)
from qfpsim.compiler import (
    assemble_shared_randomness_states,
    classical_projection_protocol,
    compile_smp,
)
from qfpsim.embeddings import (
    SignMatrix,
    ThresholdEmbedding,
    embed_to_realization,
    realization_to_embedding,
    verify_realization,
)
from qfpsim.fingerprint import (
    FingerprintProtocol,
    required_repetitions,
    run_protocol,
)
from qfpsim.problems import (
    eq_matrix,
    eq_parity_protocol,
    ham_parity_embedding,
    ip_matrix,
)
from qfpsim.projections import jl_dimension, project_vectors, verify_distortion
from tests.test_embeddings import random_tight_embedding
from tests.test_fingerprint import reference_run, swap_circuit_zero_prob


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


def test_01_forster_inner_product_values():
    t0 = time.perf_counter()
    worst = max(
        abs(forster_bound(ip_matrix(k)) - 2 ** (-k / 2)) for k in (1, 2, 3, 4)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    assert report(
        "1 spectral bound on inner-product matrices equals 2^(-k/2)",
        ok,
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_repetition_blowup_inner_product():
    worst = max(
        abs(repetition_lower_bound(forster_bound(ip_matrix(k))) - 2**k)
        / 2**k
        for k in (1, 2, 3, 4)
    )
    # "exactly" up to the float error of the computed norm
    ok = worst <= 1e-9
    assert report(
        "2 repetition lower bound at the spectral margin equals 2^k",
        ok,
        f"worst rel dev {worst:.2e}",
    )


def test_03_embedding_realization_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_fwd = worst_bwd = 0.0
    all_valid = True
    done = 0
    while done < 50:
        nx, ny = rng.integers(2, 9, size=2)
        d = int(rng.integers(1, 9))
        drawn = random_tight_embedding(rng, int(nx), int(ny), d)
        if drawn is None:  # degenerate split, redraw
            continue
        e, m = drawn
        done += 1
        gamma = (e.delta1 - e.delta0) / (2 + e.delta1 + e.delta0)
        r = embed_to_realization(e)
        all_valid &= verify_realization(r, m).valid
        worst_fwd = max(worst_fwd, abs(r.gamma - gamma))
        back = realization_to_embedding(r)
        worst_bwd = max(worst_bwd, abs((back.delta1 - back.delta0) - r.gamma))
    elapsed = time.perf_counter() - t0
    ok = all_valid and worst_fwd <= 1e-12 and worst_bwd <= 1e-12 and elapsed < 5.0
    assert report(
        "3 threshold/margin round trips hit the conversion formulas",
        ok,
        f"fwd {worst_fwd:.1e}, bwd {worst_bwd:.1e}, {elapsed:.2f}s",
    )


def test_04_equality_end_to_end():
    t0 = time.perf_counter()
    m = eq_matrix(4)
    embedding = assemble_shared_randomness_states(
        compile_smp(eq_parity_protocol(4)), m
    )
    thresholds_ok = (
        abs(embedding.delta0 - 1 / 16) <= 1e-12 and abs(embedding.delta1 - 1 / 4) <= 1e-12
    )
    eps = 1 / 3
    reps = required_repetitions(embedding.delta0, embedding.delta1, eps)
    protocol = FingerprintProtocol(
        embedding, reps, (embedding.delta0 + embedding.delta1) / 2
    )
    run = run_protocol(protocol, m, trials=200)
    budget = eps + 3 * math.sqrt(eps * (1 - eps) / 200)
    elapsed = time.perf_counter() - t0
    ok = thresholds_ok and run.exact_error <= budget and elapsed < 30.0
    assert report(
        "4 equality pipeline: exact thresholds, exact worst-pair error in budget",
        ok,
        f"d0={embedding.delta0:.6f} d1={embedding.delta1:.6f} "
        f"err={run.exact_error:.3f}<= {budget:.3f}, {elapsed:.1f}s",
    )


def test_05_equality_margin_witness():
    t0 = time.perf_counter()
    m = eq_matrix(3)
    witness = maximize_margin_heuristic(m)
    upper = margin_report(m).upper
    elapsed = time.perf_counter() - t0
    ok = witness.gamma >= 0.30 and witness.gamma <= upper + 1e-6 and elapsed < 30.0
    assert report(
        "5 heuristic margin witness for 8x8 equality",
        ok,
        f"gamma={witness.gamma:.4f} in [0.30, {upper:.4f}], {elapsed:.1f}s",
    )


def test_06_hamming_margin_scaling():
    t0 = time.perf_counter()
    gammas = {d: ham_parity_embedding(9, d).margin_lower_bound for d in (2, 3, 4)}
    products = [g * d for d, g in gammas.items()]
    positive = all(g > 0 for g in gammas.values())
    ratio = max(products) / min(products)
    elapsed = time.perf_counter() - t0
    ok = positive and ratio <= 3.0 and elapsed < 60.0
    assert report(
        "6 Hamming sketch margin scales as 1/d",
        ok,
        f"gamma={list(gammas.values())}, gamma*d spread x{ratio:.2f}, {elapsed:.1f}s",
    )


def test_07_jl_fidelity():
    t0 = time.perf_counter()
    big_d = 2000
    rng = np.random.default_rng(12345)
    vectors = rng.standard_normal((100, big_d))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    d = jl_dimension(101, 0.2)
    passes = sum(
        verify_distortion(vectors, project_vectors(vectors, d, seed), eps=0.2).ok
        for seed in range(20)
    )
    elapsed = time.perf_counter() - t0
    ok = passes >= 15 and elapsed < 60.0
    assert report(
        "7 random projection keeps 0.2 distortion on most seeds",
        ok,
        f"{passes}/20 seeds at d={d}, {elapsed:.1f}s",
    )


def test_08_bound_consistency():
    rng = np.random.default_rng(99)
    worst_gap = -np.inf
    witnesses_ok = True
    for i in range(100):
        rows, cols = rng.integers(1, 13, size=2)
        m = SignMatrix(rng.choice([-1, 1], size=(rows, cols)).astype(np.int8))
        gap = linial_bound(m) - GROTHENDIECK_K * forster_bound(m)
        worst_gap = max(worst_gap, gap)
        if i % 20 == 0:  # heuristic witnesses on a subsample, for runtime
            try:
                w = maximize_margin_heuristic(m)
            except RuntimeError:
                continue
            witnesses_ok &= w.gamma <= margin_report(m).upper + 1e-6
    ok = worst_gap <= 1e-9 and witnesses_ok
    assert report(
        "8 Grothendieck bound stays under K_G times the spectral bound",
        ok,
        f"worst gap {worst_gap:.2e}, witnesses sound: {witnesses_ok}",
    )


def test_09_swap_test_law():
    # One copy on the 1x1 matrix [[+1]] with delta0 = <a,b>^2 and delta1 = 1:
    # the referee says 1 exactly when the swap test gives 0, and every such
    # answer is an error, so the error frequency is the frequency of 0.  The
    # counts come from the reference sampler, which does not use the exact law,
    # and are compared with a statevector run of the swap-test circuit, which
    # does not use the formula that swap_test_prob computes.
    rng = np.random.default_rng(7)
    trials = 100_000
    worst_sigmas = 0.0
    for i in range(20):
        d = int(rng.integers(2, 10))
        alpha = rng.standard_normal(d)
        beta = rng.standard_normal(d)
        alpha /= np.linalg.norm(alpha)
        beta /= np.linalg.norm(beta)
        p = swap_circuit_zero_prob(alpha, beta)
        delta0 = float(alpha @ beta) ** 2
        e = ThresholdEmbedding(alpha[None, :], beta[None, :], delta0, 1.0)
        one_copy = FingerprintProtocol(e, 1, (delta0 + 1.0) / 2.0)
        run = reference_run(one_copy, SignMatrix([[1]]), trials, seed=1000 + i)
        freq = float(run[0, 0])
        sigma = math.sqrt(p * (1 - p) / trials)
        worst_sigmas = max(worst_sigmas, abs(freq - p) / sigma)
    ok = worst_sigmas <= 4.0
    assert report(
        "9 swap-test zero-outcome frequency follows the circuit's P[0]",
        ok,
        f"worst deviation {worst_sigmas:.2f} sigma",
    )


def test_10_classical_projection_estimator():
    rng = np.random.default_rng(11)
    hits = 0
    worst = 0.0
    done = 0
    while done < 10:
        d = int(rng.integers(4, 40))
        drawn = random_tight_embedding(rng, 3, 3, d)
        if drawn is None:
            continue
        e, _ = drawn
        done += 1
        x, y = int(rng.integers(3)), int(rng.integers(3))
        true = float(e.alphas[x] @ e.betas[y])
        est = classical_projection_protocol(
            e, (x, y), k=4, reps=800, precision_bits=16, seed=0
        )
        err = abs(est - true)
        worst = max(worst, err)
        hits += err <= 0.1
    ok = hits >= 9
    assert report(
        "10 classical shared-randomness estimator lands within 0.1",
        ok,
        f"{hits}/10 pairs, worst err {worst:.3f}",
    )
