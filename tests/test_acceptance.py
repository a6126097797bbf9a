"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The strategy-comparison
criteria share one set of desk-scale runs (three instances, depths 1..8,
20 trials for the multistart baselines), so the module takes about two
minutes on a 2-core host.
"""

import csv
import io
import math

import numpy as np
import pytest

from qaoa_maxcut.experiment import emit_landscape
from qaoa_maxcut.graphs import (
    Graph,
    classify,
    gen_erdos_renyi,
    gen_random_regular,
    max_cut_brute_force,
)
from qaoa_maxcut.optimize import GENERAL_BOUNDS, bounds_for_graph, maximize_bounded
from qaoa_maxcut.simulator import (
    ExpectationEvaluator,
    Parameters,
    expectation_dense_oracle,
)
from qaoa_maxcut.strategies import (
    StrategyConfig,
    base_exhaustion,
    run_bilinear,
    run_layerwise,
    run_parameters_fixing,
)
from qaoa_maxcut.symmetry import (
    DEVIATION_TOLERANCE,
    non_adiabatic_progression,
    run_symmetry_suite,
    tilde_beta,
)

K2 = Graph(n=2, edges=((0, 1),))

COMPARISON_DEPTH = 8
COMPARISON_TRIALS = 20
COMPARISON_INSTANCES = {
    "reg3-n10-s7": gen_random_regular(10, 3, 7),
    "reg4-n10-s3": gen_random_regular(10, 4, 3),
    "er0.5-n12-s5": gen_erdos_renyi(12, 0.5, 5),
}


@pytest.fixture(scope="module")
def comparison_runs():
    runs = {}
    for name, g in COMPARISON_INSTANCES.items():
        cfg = StrategyConfig(
            max_depth=COMPARISON_DEPTH,
            bounds=bounds_for_graph(classify(g)),
            trials=COMPARISON_TRIALS,
            rng_seed=11,
        )
        runs[name] = {
            "bilinear": run_bilinear(g, cfg),
            "parameters_fixing": run_parameters_fixing(g, cfg),
            "layerwise": run_layerwise(g, cfg),
        }
    return runs


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    for n in (4, 5, 6):
        for seed in range(3):
            g = gen_erdos_renyi(n, 0.6, seed)
            ev = ExpectationEvaluator(g)
            for p in (1, 2, 3):
                for _ in range(2):
                    phi = Parameters(
                        gammas=tuple(rng.uniform(0, 2 * math.pi, p)),
                        betas=tuple(rng.uniform(0, math.pi, p)),
                    )
                    worst = max(
                        worst,
                        abs(ev.expectation(phi) - expectation_dense_oracle(g, phi)),
                    )
                    cases += 1
    assert cases >= 50
    assert worst <= 1e-10
    print(
        f"\nACCEPTANCE 1 PASS: fast kernel vs dense oracle, {cases} cases, "
        f"max |diff| = {worst:.2e} <= 1e-10"
    )


def test_criterion_2_single_edge_exactness():
    resolution = 20
    rows = list(csv.reader(io.StringIO(emit_landscape(K2, resolution))))[1:]
    assert len(rows) == resolution * resolution
    worst = 0.0
    for gamma_s, beta_s, alpha_s in rows:
        gamma, beta, alpha = float(gamma_s), float(beta_s), float(alpha_s)
        closed = 0.5 * (1.0 + math.sin(4 * beta) * math.sin(gamma))
        worst = max(worst, abs(alpha - closed))
    assert worst <= 1e-9

    ev = ExpectationEvaluator(K2)
    for start in ((0.4, 0.3), (1.0, 0.2), (0.7, 0.35)):
        res = maximize_bounded(
            ev.expectation,
            Parameters(gammas=(start[0],), betas=(start[1],)),
            GENERAL_BOUNDS,
        )
        assert abs(res.f_star - 1.0) <= 1e-5
        assert abs(res.phi_star.gammas[0] - math.pi / 2) <= 1e-3
        assert abs(res.phi_star.betas[0] - math.pi / 8) <= 1e-3
    print(
        f"\nACCEPTANCE 2 PASS: K2 20x20 landscape matches closed form "
        f"(max |diff| = {worst:.2e} <= 1e-9); optimization reaches F*=1 at (pi/2, pi/8)"
    )


def test_criterion_3_depth_one_three_regular_bound():
    worst_alpha = 1.0
    for n in (6, 8, 10):
        for seed in range(5):
            g = gen_random_regular(n, 3, seed)
            cfg = StrategyConfig(
                max_depth=1,
                bounds=bounds_for_graph(classify(g)),
                trials=20,
                rng_seed=seed,
            )
            rec = base_exhaustion(g, 1, cfg)
            assert rec.alpha >= 0.6924, f"n={n} seed={seed}: alpha={rec.alpha}"
            worst_alpha = min(worst_alpha, rec.alpha)
    print(
        f"\nACCEPTANCE 3 PASS: depth-1 alpha >= 0.6924 on fifteen 3-regular "
        f"instances (worst = {worst_alpha:.4f})"
    )


def test_criterion_4_symmetry_suite():
    reports = run_symmetry_suite(samples=100, seed=7, max_p=3)
    assert {r.transform for r in reports} == {
        "angle_reversal",
        "periodicity_full",
        "periodicity_masked",
        "general_point_symmetry",
        "even_regular",
        "odd_regular",
    }
    for r in reports:
        assert r.samples >= 100
        assert r.max_abs_deviation <= DEVIATION_TOLERANCE, r
    worst = max(r.max_abs_deviation for r in reports)
    print(
        f"\nACCEPTANCE 4 PASS: all six symmetry checks <= {DEVIATION_TOLERANCE} "
        f"over 100 draws each (worst = {worst:.2e})"
    )


def test_criterion_5_bilinear_traces_parameters_fixing(comparison_runs):
    worst = 0.0
    for name, runs in comparison_runs.items():
        for bi, pf in zip(runs["bilinear"], runs["parameters_fixing"]):
            gap = abs(bi.alpha - pf.alpha)
            worst = max(worst, gap)
            assert gap <= 0.01, f"{name} p={bi.depth}: |alpha gap| = {gap:.4f}"
    print(
        f"\nACCEPTANCE 5 PASS: |alpha_bilinear - alpha_fixing| <= 0.01 on "
        f"{len(comparison_runs)} instances up to p={COMPARISON_DEPTH} "
        f"(worst gap = {worst:.4f})"
    )


def test_criterion_6_cost_advantage(comparison_runs):
    worst_ratio = math.inf
    for name, runs in comparison_runs.items():
        for bi, pf in zip(runs["bilinear"], runs["parameters_fixing"]):
            if bi.depth < 3:
                continue
            ratio = pf.nfev_total / bi.nfev_total
            worst_ratio = min(worst_ratio, ratio)
            assert bi.nfev_total * 10 <= pf.nfev_total, (
                f"{name} p={bi.depth}: bilinear nfev {bi.nfev_total} vs "
                f"fixing {pf.nfev_total} (ratio {ratio:.1f} < 10)"
            )
    print(
        f"\nACCEPTANCE 6 PASS: bilinear per-depth nfev <= 1/10 of the 20-trial "
        f"parameters-fixing total for p in [3, {COMPARISON_DEPTH}] "
        f"(worst measured ratio = {worst_ratio:.1f}x)"
    )


def test_criterion_7_baseline_monotonicity_and_dominance(comparison_runs):
    for name, runs in comparison_runs.items():
        for strategy in ("parameters_fixing", "layerwise"):
            alphas = [rec.alpha for rec in runs[strategy]]
            for a, b in zip(alphas, alphas[1:]):
                assert b >= a - 1e-9, f"{name} {strategy}: alpha decreased"
        for lw, pf in zip(runs["layerwise"], runs["parameters_fixing"]):
            assert lw.f_star <= pf.f_star + 1e-6, (
                f"{name} p={lw.depth}: layerwise beats parameters fixing"
            )
    print(
        "\nACCEPTANCE 7 PASS: parameters-fixing and layerwise alphas "
        "non-decreasing; layerwise never beats parameters fixing"
    )


def test_criterion_8_non_adiabatic_correspondence():
    g = gen_random_regular(10, 3, 0)
    ev = ExpectationEvaluator(g)
    optima = non_adiabatic_progression(g, max_depth=5, trials=20, seed=0)
    assert optima[0].gammas[0] >= math.pi / 2  # the start is non-adiabatic
    worst = 0.0
    for phi in optima:
        mirrored = Parameters(
            gammas=tuple(math.pi - x for x in phi.gammas),
            betas=tilde_beta(phi.betas),
        )
        worst = max(worst, abs(ev.expectation(phi) - ev.expectation(mirrored)))
        assert worst <= 1e-6
        # the mirror lands in the adiabatic half of the box
        assert all(math.pi - gamma <= math.pi / 2 + 1e-6 for gamma in phi.gammas)
    betas_high = [b for b in optima[-1].betas[1::2]]
    betas_low = [b for b in optima[-1].betas[0::2]]
    assert min(betas_high) > max(betas_low)  # the oscillation is visible
    print(
        f"\nACCEPTANCE 8 PASS: non-adiabatic branch optima up to p=5 are the "
        f"odd-regular mirror of the adiabatic branch (max identity deviation "
        f"= {worst:.2e} <= 1e-6; betas oscillate)"
    )
