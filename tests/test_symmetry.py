import math

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


    @pytest.mark.parametrize("max_n", [5, 6, 7, 8, 9, 11])
    def test_pools_honour_max_n(self, max_n):
        pools = symmetry_module._suite_graphs(np.random.default_rng(0), max_n)
        assert all(g.n <= max_n for pool in pools.values() for g in pool)
        reports = run_symmetry_suite(samples=5, seed=1, max_n=max_n)
        assert all(r.max_abs_deviation <= DEVIATION_TOLERANCE for r in reports)

    def test_default_pool_sizes(self):
        pools = symmetry_module._suite_graphs(np.random.default_rng(0), 10)
        sizes = {name: [g.n for g in pool] for name, pool in pools.items()}
        assert sizes == {
            "general": [6, 8, 10, 10],
            "even_regular": [3, 9, 10],
            "odd_regular": [4, 8, 10],
        }

    @pytest.mark.parametrize("max_n", [-1, 0, 1, 4])
    def test_rejects_max_n_below_the_pools(self, max_n):
        with pytest.raises(ValueError, match=f"max_n must be >= 5.*got {max_n}"):
            run_symmetry_suite(samples=1, max_n=max_n)


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

        def counting(block, betas, n, scratch=None):
            if len(betas) > 1:
                row_layers.append(len(betas))
            else:
                one_row.append(betas[0])
            kernel(block, betas, n, scratch)

        monkeypatch.setattr(simulator, "_mixer_kernel", counting)
        non_adiabatic_progression(gen_random_regular(8, 3, 3), max_depth=1)
        # The 24 x 24 grid runs one row at a time; the refinement's probes do not.
        assert sum(row_layers) > 0
        assert 24 * 24 < len(one_row) < 616

    def test_rejects_non_odd_regular(self):
        with pytest.raises(ValueError, match="odd-regular"):
            non_adiabatic_progression(K3, max_depth=2)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_rejects_empty_grid(self, grid):
        g = gen_random_regular(6, 3, 0)
        with pytest.raises(ValueError, match=f"grid must be >= 1, got {grid}"):
            non_adiabatic_progression(g, max_depth=2, grid=grid)
