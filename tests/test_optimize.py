import math

import numpy as np
import pytest

from qaoa_maxcut.graphs import Graph, GraphClass, gen_random_regular
from qaoa_maxcut.optimize import (
    GENERAL_BOUNDS,
    REGULAR_BOUNDS,
    Bounds,
    OptimizationError,
    OptimizerConfig,
    bounds_for_graph,
    clamp,
    maximize_bounded,
    maximize_flat,
)
from qaoa_maxcut.simulator import ExpectationEvaluator, Parameters, advance_probes

K2 = Graph(n=2, edges=((0, 1),))
HALF_PI = math.pi / 2


class TestBoundsForGraph:
    def test_odd_regular(self):
        b = bounds_for_graph(GraphClass.ODD_REGULAR)
        assert (b.gamma_min, b.gamma_max) == (0.0, HALF_PI)
        assert (b.beta_min, b.beta_max) == (0.0, HALF_PI)

    def test_even_regular(self):
        assert bounds_for_graph(GraphClass.EVEN_REGULAR) == REGULAR_BOUNDS

    def test_non_regular(self):
        b = bounds_for_graph(GraphClass.NON_REGULAR)
        assert (b.gamma_min, b.gamma_max) == (0.0, math.pi)
        assert (b.beta_min, b.beta_max) == (0.0, HALF_PI)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Bounds(0.0, 0.0, 0.0, 1.0)


class TestClamp:
    def test_inside_unchanged(self):
        phi = Parameters(gammas=(0.3,), betas=(0.3,))
        assert clamp(phi, REGULAR_BOUNDS) == phi

    def test_below_goes_to_lower(self):
        phi = Parameters(gammas=(0.3,), betas=(-0.15,))
        assert clamp(phi, REGULAR_BOUNDS).betas == (0.0,)

    def test_above_goes_to_upper(self):
        phi = Parameters(gammas=(1.7,), betas=(0.3,))
        assert clamp(phi, REGULAR_BOUNDS).gammas == (HALF_PI,)


class TestMaximizeFlat:
    def test_interior_maximum(self):
        x, f, nfev, converged = maximize_flat(
            lambda x: -((x[0] - 0.3) ** 2), [0.9], [0.0], [1.0]
        )
        assert abs(x[0] - 0.3) < 1e-6
        assert converged
        assert nfev >= 1

    def test_boundary_maximum(self):
        x, f, nfev, converged = maximize_flat(
            lambda x: -((x[0] + 1.0) ** 2), [0.5], [0.0], [1.0]
        )
        assert abs(x[0] - 0.0) < 1e-8
        assert converged

    def test_start_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            maximize_flat(lambda x: 0.0, [2.0], [0.0], [1.0])

    @pytest.mark.parametrize(
        "x0, lower, upper, match",
        [
            # Equal bounds made the FD gradient divide 0 by 0, and L-BFGS-B
            # stopped at [0.399999, 0.5], not at the box maximum [0.3, 0.5].
            ([0.2, 0.5], [0.0, 0.5], [1.0, 0.5], "degenerate"),
            ([0.5], [1.0], [0.0], "degenerate"),
            ([0.2], [math.nan], [1.0], "finite"),
            ([0.2], [0.0], [math.inf], "finite"),
            ([0.2, 0.5], [0.0], [1.0], "shape"),
            ([[0.2, 0.5]], [[0.0, 0.0]], [[1.0, 1.0]], "1-D"),
            ([], [], [], "non-empty"),
            ([math.nan], [0.0], [1.0], "outside"),
        ],
        ids=[
            "equal-bounds", "inverted-bounds", "nan-bound", "infinite-bound",
            "short-box", "2d-start", "empty-start", "nan-start",
        ],
    )
    def test_bad_box_rejected_before_first_call(self, x0, lower, upper, match):
        def fun(x):
            raise AssertionError(f"objective called at {x}")

        with pytest.raises(ValueError, match=match):
            maximize_flat(fun, x0, lower, upper)


class TestMaximizeBounded:
    def test_k2_reaches_closed_form_optimum(self):
        ev = ExpectationEvaluator(K2)
        res = maximize_bounded(
            ev.expectation, Parameters(gammas=(0.4,), betas=(0.3,)), GENERAL_BOUNDS
        )
        assert abs(res.f_star - 1.0) < 1e-6
        assert abs(res.phi_star.gammas[0] - HALF_PI) < 1e-4
        assert abs(res.phi_star.betas[0] - math.pi / 8) < 1e-4

    def test_nfev_counts_every_objective_call(self):
        ev = ExpectationEvaluator(K2)
        calls = 0

        def counted(phi: Parameters) -> float:
            nonlocal calls
            calls += 1
            return ev.expectation(phi)

        res = maximize_bounded(
            counted, Parameters(gammas=(0.4,), betas=(0.3,)), GENERAL_BOUNDS
        )
        assert res.nfev == calls

    def test_never_worse_than_start(self):
        ev = ExpectationEvaluator(K2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            phi0 = Parameters(
                gammas=(rng.uniform(0, math.pi),), betas=(rng.uniform(0, HALF_PI),)
            )
            res = maximize_bounded(ev.expectation, phi0, GENERAL_BOUNDS)
            assert res.f_star >= ev.expectation(phi0) - 1e-12

    def test_result_within_bounds_inclusive(self):
        ev = ExpectationEvaluator(K2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            phi0 = Parameters(
                gammas=(rng.uniform(0, HALF_PI),), betas=(rng.uniform(0, HALF_PI),)
            )
            res = maximize_bounded(ev.expectation, phi0, REGULAR_BOUNDS)
            assert REGULAR_BOUNDS.contains(res.phi_star)

    def test_deterministic_rerun(self):
        ev = ExpectationEvaluator(K2)
        phi0 = Parameters(gammas=(0.7,), betas=(0.2,))
        a = maximize_bounded(ev.expectation, phi0, GENERAL_BOUNDS)
        b = maximize_bounded(ev.expectation, phi0, GENERAL_BOUNDS)
        assert a == b  # bit-identical: same angles, f, nfev, flag

    def test_start_outside_bounds_rejected(self):
        ev = ExpectationEvaluator(K2)
        with pytest.raises(ValueError, match="clamp"):
            maximize_bounded(
                ev.expectation, Parameters(gammas=(3.0,), betas=(0.2,)), REGULAR_BOUNDS
            )

    def test_non_finite_objective_raises_with_partial(self):
        calls = 0

        def poisoned(phi: Parameters) -> float:
            nonlocal calls
            calls += 1
            if calls > 3:
                return math.nan
            return -((phi.gammas[0] - 0.3) ** 2)

        with pytest.raises(OptimizationError) as excinfo:
            maximize_bounded(
                poisoned, Parameters(gammas=(0.9,), betas=(0.1,)), REGULAR_BOUNDS
            )
        err = excinfo.value
        assert err.nfev == calls
        assert math.isfinite(err.best_f)
        assert REGULAR_BOUNDS.contains(Parameters.from_array(err.best_x))


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.gradient_step == 1e-6
        assert cfg.convergence_tolerance == 1e-9
        assert cfg.max_iterations == 500

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(gradient_step=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=-1)


class TestPrefetch:
    """An objective's `prefetch` hook gets each gradient's probes first; the
    optimizer still calls the objective once per probe."""

    def test_non_finite_batched_probe_is_accounted_as_on_the_plain_path(self, monkeypatch):
        g = gen_random_regular(8, 3, 2)
        phi0 = Parameters(gammas=(0.3, 0.5, 0.2), betas=(0.4, 0.1, 0.3))
        layers, poisoned = ExpectationEvaluator._layers, []

        def poisoning(evaluator, angles, starts, store):
            states = layers(evaluator, angles, starts, store)
            if not store and not poisoned:  # the first gradient, on a probe of its middle layer
                r = starts.index(1)
                poisoned.append(angles[r].tobytes())
                states[r] = math.nan
            return states

        monkeypatch.setattr(ExpectationEvaluator, "_layers", poisoning)
        ev = ExpectationEvaluator(g)

        def batched(phi):
            return ev.expectation(phi)

        batched.prefetch = lambda angles: advance_probes(ev, angles)
        with pytest.raises(OptimizationError) as from_batch:
            maximize_bounded(batched, phi0, REGULAR_BOUNDS)
        monkeypatch.undo()
        fresh = ExpectationEvaluator(g)

        def plain(phi):
            if np.array((phi.gammas, phi.betas)).tobytes() == poisoned[0]:
                return math.nan
            return fresh.expectation(phi)

        with pytest.raises(OptimizationError) as from_plain:
            maximize_bounded(plain, phi0, REGULAR_BOUNDS)
        batch, one = from_batch.value, from_plain.value
        assert batch.nfev == one.nfev > 2
        assert batch.best_f.hex() == one.best_f.hex()
        assert batch.best_x.tobytes() == one.best_x.tobytes()

    def test_each_block_is_then_called_probe_by_probe(self):
        calls, blocks = [], []

        def fun(x):
            calls.append(x.copy())
            return -float(np.sum((x - 0.3) ** 2))

        fun.prefetch = lambda rows: blocks.append(rows.copy())
        _, _, nfev, _ = maximize_flat(fun, np.array([0.0, 0.1, 0.2, 0.9]), np.zeros(4), np.ones(4))
        assert nfev == len(calls)
        assert blocks
        calls = np.array(calls)
        for block in blocks:
            k = len(block)
            assert k == 8
            assert any(np.array_equal(calls[i : i + k], block) for i in range(len(calls) - k + 1))
