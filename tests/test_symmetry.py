import hashlib
import math
import re

import numpy as np
import pytest

import qaoa_maxcut.symmetry as symmetry_module
from qaoa_maxcut.graphs import Graph, classify, gen_erdos_renyi, gen_random_regular
from qaoa_maxcut.optimize import Bounds, maximize_bounded
from qaoa_maxcut.simulator import ExpectationEvaluator, Parameters
from qaoa_maxcut.symmetry import (
    DEVIATION_TOLERANCE,
    check_angle_reversal,
    check_even_regular,
    check_general_point_symmetry,
    check_odd_regular,
    check_periodicity,
    non_adiabatic_progression,
    run_symmetry_suite,
    tilde_beta,
)

# sha256 of the suite's reports at seeds 0, 11 and 42 (samples 100, max_p 4),
# recorded before the checks shared one comparison.
SUITE_DIGEST = "fdfa3fb6e4bff23d99ebe0f8d39c3e9ab61fa77edbd32a58368d88ce3c6119ac"

# sha256 of the suite's `expectation` arguments (n, p and the float.hex of
# every angle) in calling order at the same seeds, recorded before a NaN
# deviation was kept.
SUITE_ARGUMENTS_DIGEST = "23606aeee696aa92399c673c84f48dafe882dfeb6b45a1adb71bb033d66da9a0"

K3 = Graph(n=3, edges=((0, 1), (1, 2), (0, 2)))
K4 = Graph(n=4, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
EV3 = ExpectationEvaluator(K3)
EV4 = ExpectationEvaluator(K4)


def random_phi(rng, p):
    return Parameters(
        gammas=tuple(rng.uniform(0, 2 * math.pi, p)),
        betas=tuple(rng.uniform(0, math.pi, p)),
    )


class TestAngleReversal:
    def test_zero_point_is_fixed(self):
        phi = Parameters(gammas=(0.0, 0.0), betas=(0.0, 0.0))
        assert check_angle_reversal(EV3, phi) == 0.0

    def test_k3_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert check_angle_reversal(EV3, random_phi(rng, 2)) <= 1e-9

    def test_erdos_renyi_random(self):
        ev = ExpectationEvaluator(gen_erdos_renyi(10, 0.7, 5))
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert check_angle_reversal(ev, random_phi(rng, 3)) <= 1e-9


class TestPeriodicity:
    def test_empty_mask_is_zero(self):
        rng = np.random.default_rng(2)
        assert check_periodicity(EV3, random_phi(rng, 2)) == 0.0

    def test_full_gamma_shift(self):
        ev = ExpectationEvaluator(gen_erdos_renyi(8, 0.5, 3))
        rng = np.random.default_rng(3)
        for _ in range(10):
            phi = random_phi(rng, 2)
            assert check_periodicity(ev, phi, gamma_shift=range(2)) <= 1e-9

    def test_single_beta_element_shift(self):
        ev = ExpectationEvaluator(gen_erdos_renyi(8, 0.5, 4))
        rng = np.random.default_rng(4)
        for _ in range(10):
            phi = random_phi(rng, 3)
            assert check_periodicity(ev, phi, beta_shift=[1]) <= 1e-9

    def test_arbitrary_masks(self):
        ev = ExpectationEvaluator(gen_random_regular(8, 3, 5))
        rng = np.random.default_rng(5)
        for _ in range(10):
            phi = random_phi(rng, 3)
            assert (
                check_periodicity(ev, phi, gamma_shift=[0, 2], beta_shift=[0, 1]) <= 1e-9
            )

    @pytest.mark.parametrize(
        "shifts, message",
        [
            ({"gamma_shift": [5]}, "gamma_shift index must be < p = 2, got 5"),
            ({"gamma_shift": [0, -1]}, "gamma_shift index must be >= 0, got -1"),
            ({"beta_shift": [True]}, "beta_shift index must be an integer, got True"),
        ],
        ids=["past-depth", "negative", "bool"],
    )
    def test_bad_shift_index_rejected_before_any_evaluation(self, shifts, message):
        class NoEvaluation:
            def expectation(self, phi):
                raise AssertionError("evaluated before the shift indices were checked")

        phi = Parameters(gammas=(0.1, 0.2), betas=(0.3, 0.4))
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_periodicity(NoEvaluation(), phi, **shifts)


class TestGeneralPointSymmetry:
    def test_center_point_is_fixed(self):
        phi = Parameters(gammas=(math.pi, math.pi), betas=(math.pi / 4, math.pi / 4))
        assert check_general_point_symmetry(EV3, phi) == 0.0

    def test_non_regular_random(self):
        ev = ExpectationEvaluator(gen_erdos_renyi(9, 0.4, 7))
        assert classify(ev.graph).value == "non_regular"
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert check_general_point_symmetry(ev, random_phi(rng, 2)) <= 1e-9

    def test_depth_one_maxima_are_images_of_each_other(self):
        # Locate the two depth-1 maxima by grid+refine on a non-regular graph;
        # the point map gamma -> 2*pi - gamma, beta -> pi/2 - beta must link them.
        g = gen_erdos_renyi(8, 0.5, 11)
        assert classify(g).value == "non_regular"
        ev = ExpectationEvaluator(g)

        def refine(gamma_lo, gamma_hi):
            best, best_f = None, -np.inf
            for gamma in np.linspace(gamma_lo, gamma_hi, 24, endpoint=False):
                for beta in np.linspace(0, math.pi / 2, 24, endpoint=False):
                    f = ev.expectation(Parameters(gammas=(gamma,), betas=(beta,)))
                    if f > best_f:
                        best, best_f = (gamma, beta), f
            res = maximize_bounded(
                ev.expectation,
                Parameters(gammas=(best[0],), betas=(best[1],)),
                Bounds(gamma_lo, gamma_hi, 0.0, math.pi / 2),
            )
            return res.phi_star, res.f_star

    # left half: gamma in [0, pi); right half: gamma in [pi, 2*pi)
        left, f_left = refine(0.0, math.pi)
        right, f_right = refine(math.pi, 2 * math.pi)
        assert abs(f_left - f_right) <= 1e-6
        assert abs((2 * math.pi - right.gammas[0]) - left.gammas[0]) <= 1e-3
        assert abs((math.pi / 2 - right.betas[0]) - left.betas[0]) <= 1e-3


class TestEvenRegular:
    def test_four_regular_random(self):
        ev = ExpectationEvaluator(gen_random_regular(10, 4, 8))
        rng = np.random.default_rng(8)
        for _ in range(10):
            assert check_even_regular(ev, random_phi(rng, 2)) <= 1e-9

    def test_triangle_is_two_regular(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            assert check_even_regular(EV3, random_phi(rng, 2)) <= 1e-9

    def test_odd_regular_rejected(self):
        with pytest.raises(ValueError, match="even-regular"):
            check_even_regular(EV4, Parameters(gammas=(0.1,), betas=(0.1,)))


class TestTildeBeta:
    def test_single_element_unchanged(self):
        assert tilde_beta((0.3,)) == (0.3,)

    def test_even_indices_reflected(self):
        out = tilde_beta((0.1, 0.2, 0.3))
        assert out[0] == 0.1
        assert out[1] == pytest.approx(math.pi / 2 - 0.2, abs=1e-15)
        assert out[2] == 0.3

    def test_involution(self):
        betas = (0.12, 0.34, 0.56, 0.78)
        assert tilde_beta(tilde_beta(betas)) == pytest.approx(betas, abs=1e-15)


class TestOddRegular:
    def test_k4_random_depth_three(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            assert check_odd_regular(EV4, random_phi(rng, 3)) <= 1e-9

    def test_three_regular_depth_four(self):
        ev = ExpectationEvaluator(gen_random_regular(10, 3, 12))
        rng = np.random.default_rng(11)
        for _ in range(5):
            assert check_odd_regular(ev, random_phi(rng, 4)) <= 1e-9

    def test_fixed_point_is_exact(self):
        # gamma = pi/2 maps to itself; beta with even-index entries at pi/4
        # satisfies tilde(beta) = beta.
        phi = Parameters(gammas=(math.pi / 2, math.pi / 2), betas=(0.3, math.pi / 4))
        assert check_odd_regular(EV4, phi) == 0.0

    def test_even_regular_rejected(self):
        with pytest.raises(ValueError, match="odd-regular"):
            check_odd_regular(EV3, Parameters(gammas=(0.1,), betas=(0.1,)))


class TestSuite:
    def test_all_transforms_within_tolerance(self):
        reports = run_symmetry_suite(samples=25, seed=42)
        assert {r.transform for r in reports} == {
            "angle_reversal",
            "periodicity_full",
            "periodicity_masked",
            "general_point_symmetry",
            "even_regular",
            "odd_regular",
        }
        for r in reports:
            assert r.samples == 25
            assert r.max_abs_deviation <= DEVIATION_TOLERANCE

    def test_suite_digest_is_unchanged(self):
        """A regression pin, not an oracle: recorded from the code itself under
        one BLAS thread, so it shows that a change moved some report's bits,
        not which bits are right."""
        h = hashlib.sha256()
        for seed in (0, 11, 42):
            for r in run_symmetry_suite(samples=100, seed=seed, max_p=4):
                h.update(f"{r.transform}:{r.max_abs_deviation.hex()}:{r.samples};".encode())
        assert h.hexdigest() == SUITE_DIGEST

    def test_suite_arguments_digest_is_unchanged(self, monkeypatch):
        """A regression pin on the order and the bits of every angle the
        suite evaluates, which the report digest misses: a one-ulp change to
        an image rarely moves the largest deviation."""
        expectation, h = ExpectationEvaluator.expectation, hashlib.sha256()

        def recorded(ev, phi):
            angles = ",".join(x.hex() for x in phi.gammas + phi.betas)
            h.update(f"{ev.graph.n}:{phi.p}:{angles};".encode())
            return expectation(ev, phi)

        monkeypatch.setattr(ExpectationEvaluator, "expectation", recorded)
        for seed in (0, 11, 42):
            run_symmetry_suite(samples=100, seed=seed, max_p=4)
        assert h.hexdigest() == SUITE_ARGUMENTS_DIGEST

    def test_a_nan_deviation_is_reported(self, monkeypatch):
        value, calls = ExpectationEvaluator._value, []

        def every_second_nan(ev, probs):
            calls.append(None)
            return math.nan if len(calls) % 2 == 0 else value(ev, probs)

        monkeypatch.setattr(ExpectationEvaluator, "_value", every_second_nan)
        reports = run_symmetry_suite(samples=10, seed=0)
        assert len(reports) == 6
        assert all(math.isnan(r.max_abs_deviation) for r in reports)

    def test_a_nan_second_image_is_kept(self, monkeypatch):
        # F(phi) and the pi-shifted image are numbers, the point image NaN.
        value, calls = ExpectationEvaluator._value, []

        def third_nan(ev, probs):
            calls.append(None)
            return math.nan if len(calls) == 3 else value(ev, probs)

        monkeypatch.setattr(ExpectationEvaluator, "_value", third_nan)
        phi = random_phi(np.random.default_rng(5), 2)
        assert math.isnan(check_even_regular(ExpectationEvaluator(K3), phi))
        assert len(calls) == 3

    def test_default_pool_sizes(self):
        pools = symmetry_module._suite_graphs(np.random.default_rng(0))
        sizes = {name: [g.n for g in pool] for name, pool in pools.items()}
        assert sizes == {
            "general": [6, 8, 10, 10],
            "even_regular": [3, 9, 10],
            "odd_regular": [4, 8, 10],
        }


class TestNonAdiabaticProgression:
    def test_branch_stays_in_redundant_half_and_mirrors_to_adiabatic(self):
        g = gen_random_regular(8, 3, 0)
        ev = ExpectationEvaluator(g)
        optima = non_adiabatic_progression(g, max_depth=3, trials=10)
        assert len(optima) == 3
        for phi in optima:
            # The traced branch lives in gamma >= pi/2, so its mirror
            # pi - gamma lies in the adiabatic region [0, pi/2].
            assert all(gamma >= math.pi / 2 - 1e-6 for gamma in phi.gammas)
            mirrored = Parameters(
                gammas=tuple(math.pi - x for x in phi.gammas),
                betas=tilde_beta(phi.betas),
            )
            assert abs(ev.expectation(phi) - ev.expectation(mirrored)) <= 1e-6

    def test_depth_one_refinement_advances_gradient_probes_together(self, monkeypatch):
        from qaoa_maxcut import simulator

        kernel = simulator._mixer_kernel
        row_layers, one_row = [], []

        def counting(block, betas, n, scratch, *rest):
            if len(betas) > 1:
                row_layers.append(len(betas))
            else:
                one_row.append(betas[0])
            kernel(block, betas, n, scratch, *rest)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        non_adiabatic_progression(gen_random_regular(8, 3, 3), max_depth=1)
        # The 24 x 24 grid runs one row at a time; the refinement runs each
        # point with its probes.
        assert sum(row_layers) > 0
        assert len(one_row) == 24 * 24

    @pytest.mark.parametrize("call", [1, 5])
    def test_a_non_finite_grid_value_raises(self, call, monkeypatch):
        # With a NaN first value, max kept the NaN point (pi/2, 0), a beta = 0
        # stationary point, as the branch start; with a NaN fifth, it ran on.
        value, calls = ExpectationEvaluator._value, []

        def nan_once(ev, probs):
            calls.append(None)
            return math.nan if len(calls) == call else value(ev, probs)

        monkeypatch.setattr(ExpectationEvaluator, "_value", nan_once)
        betas = np.linspace(0.0, math.pi / 2, 24, endpoint=False)
        point = Parameters(gammas=(math.pi / 2,), betas=(float(betas[call - 1]),))
        with pytest.raises(ValueError, match=re.escape(f"grid point {point}")):
            non_adiabatic_progression(gen_random_regular(8, 3, 3), max_depth=1, trials=2)
        # The whole grid, and no refinement.
        assert len(calls) == 24 * 24

    def test_rejects_non_odd_regular(self):
        with pytest.raises(ValueError, match="odd-regular"):
            non_adiabatic_progression(K3, max_depth=2)
