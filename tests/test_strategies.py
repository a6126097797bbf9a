import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qaoa_maxcut.simulator as simulator
import qaoa_maxcut.strategies as strategies_module
from qaoa_maxcut.graphs import (
    Graph,
    classify,
    gen_erdos_renyi,
    gen_random_regular,
    max_cut_brute_force,
)
from qaoa_maxcut.optimize import GENERAL_BOUNDS, REGULAR_BOUNDS, Bounds, bounds_for_graph
from qaoa_maxcut.simulator import ExpectationEvaluator, Parameters
from qaoa_maxcut.strategies import (
    STRATEGIES,
    StrategyConfig,
    base_exhaustion,
    bilinear_predict,
    linear_ramp_init,
    run_bilinear,
    run_layerwise,
    run_linear_ramp,
    run_parameters_fixing,
)
from qaoa_maxcut.symmetry import non_adiabatic_progression

K2 = Graph(n=2, edges=((0, 1),))
K3 = Graph(n=3, edges=((0, 1), (1, 2), (0, 2)))

WIDE = Bounds(-100.0, 100.0, -100.0, 100.0)

angle = st.floats(-1.0, 2.5, allow_nan=False)


def small_cfg(bounds, max_depth=3, trials=6, seed=0):
    return StrategyConfig(max_depth=max_depth, bounds=bounds, trials=trials, rng_seed=seed)


class TestBilinearPredict:
    def test_constant_inputs_stay_constant(self):
        prev = Parameters(gammas=(0.3, 0.3), betas=(0.2, 0.2))
        prev2 = Parameters(gammas=(0.3,), betas=(0.2,))
        out = bilinear_predict(prev, prev2, REGULAR_BOUNDS)
        assert out.gammas == (0.3, 0.3, 0.3)
        assert out.betas == pytest.approx((0.2, 0.2, 0.2), abs=1e-15)

    def test_gamma_rules_direct_evaluation(self):
        prev = Parameters(gammas=(0.2, 0.5), betas=(0.0, 0.0))
        prev2 = Parameters(gammas=(0.3,), betas=(0.0,))
        out = bilinear_predict(prev, prev2, REGULAR_BOUNDS)
        assert out.gammas == pytest.approx((0.1, 0.4, 0.7), abs=1e-15)

    def test_beta_rules_with_clamp_to_nearer_bound(self):
        prev = Parameters(gammas=(0.0, 0.0), betas=(0.4, 0.1))
        prev2 = Parameters(gammas=(0.0,), betas=(0.35,))
        out = bilinear_predict(prev, prev2, REGULAR_BOUNDS)
        # raw third value 2*(0.15) - 0.45 = -0.15 clamps to the lower bound 0
        assert out.betas == pytest.approx((0.45, 0.15, 0.0), abs=1e-15)

    def test_depth_four_uses_three_rules(self):
        prev = Parameters(gammas=(0.1, 0.2, 0.4), betas=(0.3, 0.25, 0.15))
        prev2 = Parameters(gammas=(0.15, 0.25), betas=(0.35, 0.3))
        out = bilinear_predict(prev, prev2, WIDE)
        g1 = 2 * 0.1 - 0.15
        g2 = 2 * 0.2 - 0.25
        g3 = 0.4 + (0.2 - 0.25)
        g4 = 2 * g3 - g2
        assert out.gammas == pytest.approx((g1, g2, g3, g4), abs=1e-15)

    def test_length_mismatch_rejected(self):
        prev = Parameters(gammas=(0.1, 0.2, 0.3), betas=(0.1, 0.2, 0.3))
        prev2 = Parameters(gammas=(0.1,), betas=(0.1,))
        with pytest.raises(ValueError, match="consecutive"):
            bilinear_predict(prev, prev2, REGULAR_BOUNDS)

    @settings(max_examples=100)
    @given(
        g1=angle, g2=angle, g0=angle, b1=angle, b2=angle, b0=angle
    )
    def test_output_always_within_bounds(self, g1, g2, g0, b1, b2, b0):
        prev = Parameters(gammas=(g1, g2), betas=(b1, b2))
        prev2 = Parameters(gammas=(g0,), betas=(b0,))
        out = bilinear_predict(prev, prev2, REGULAR_BOUNDS)
        assert REGULAR_BOUNDS.contains(out)

    @settings(max_examples=50)
    @given(g1=angle, g2=angle, g0=angle, shift=st.floats(-5, 5, allow_nan=False))
    def test_shift_equivariant_before_clamping(self, g1, g2, g0, shift):
        # WIDE bounds keep the clamp inactive, exposing the linear rules.
        prev = Parameters(gammas=(g1, g2), betas=(0.0, 0.0))
        prev2 = Parameters(gammas=(g0,), betas=(0.0,))
        base = bilinear_predict(prev, prev2, WIDE)
        shifted = bilinear_predict(
            Parameters(gammas=(g1 + shift, g2 + shift), betas=(0.0, 0.0)),
            Parameters(gammas=(g0 + shift,), betas=(0.0,)),
            WIDE,
        )
        for a, b in zip(base.gammas, shifted.gammas):
            assert b == pytest.approx(a + shift, abs=1e-9)


class TestLinearRampInit:
    def test_depth_two(self):
        phi = linear_ramp_init(2, 1.0)
        assert phi.gammas == (0.5, 1.0)
        assert phi.betas == (0.5, 0.0)

    def test_depth_three(self):
        phi = linear_ramp_init(3, 0.9)
        assert phi.gammas == pytest.approx((0.3, 0.6, 0.9), abs=1e-15)
        assert phi.betas == pytest.approx((0.6, 0.3, 0.0), abs=1e-15)

    def test_depth_one(self):
        phi = linear_ramp_init(1, 0.7)
        assert phi.gammas == (0.7,)
        assert phi.betas == (0.0,)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            linear_ramp_init(0, 0.5)
        with pytest.raises(ValueError):
            linear_ramp_init(2, -0.1)
        for delta_t in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                linear_ramp_init(3, delta_t)


class TestBaseExhaustion:
    def test_k2_finds_exact_optimum(self):
        rec = base_exhaustion(K2, 1, small_cfg(GENERAL_BOUNDS, trials=8))
        assert abs(rec.f_star - 1.0) < 1e-5
        assert abs(rec.phi_star.gammas[0] - math.pi / 2) < 1e-3
        assert abs(rec.phi_star.betas[0] - math.pi / 8) < 1e-3

    def test_never_below_the_uniform_superposition_value(self):
        for seed in (0, 1):
            g = gen_random_regular(8, 3, seed)
            cfg = small_cfg(bounds_for_graph(classify(g)), trials=4, seed=seed)
            rec = base_exhaustion(g, 1, cfg)
            assert rec.f_star >= g.m / 2 - 1e-12
            assert cfg.bounds.contains(rec.phi_star)

    def test_depth_two_shape(self):
        rec = base_exhaustion(K3, 2, small_cfg(REGULAR_BOUNDS, trials=4))
        assert rec.depth == 2
        assert rec.phi_star.p == 2
        assert REGULAR_BOUNDS.contains(rec.phi_star)

    def test_only_base_depths_allowed(self):
        with pytest.raises(ValueError, match="depths 1 and 2"):
            base_exhaustion(K3, 3, small_cfg(REGULAR_BOUNDS))

    def test_deterministic(self):
        cfg = small_cfg(REGULAR_BOUNDS, trials=5, seed=3)
        assert base_exhaustion(K3, 1, cfg) == base_exhaustion(K3, 1, cfg)

    def test_starts_match_scipy_scrambled_halton(self):
        # The library's sampler reproduces scipy 1.17's Owen-scrambled Halton
        # and its scaling byte for byte; only this test imports scipy.stats.
        from scipy.stats import qmc

        for seed in range(60):
            bounds = (GENERAL_BOUNDS, REGULAR_BOUNDS)[seed % 2]
            for p in range(1, 5):
                lower, upper = bounds.box(p)
                for trials in (2, 5, 20, 41):
                    engine = qmc.Halton(
                        d=2 * p, scramble=True, seed=np.random.default_rng([seed, p])
                    )
                    want = qmc.scale(engine.random(trials - 1), lower, upper)
                    cfg = small_cfg(bounds, max_depth=p, trials=trials, seed=seed)
                    corner, *starts = strategies_module._exhaustion_starts(p, cfg)
                    got = np.array([phi.to_array() for phi in starts])
                    assert got.tobytes() == want.tobytes(), (seed, p, trials)


class TestRunBilinear:
    def test_depth_two_run_is_exactly_base_exhaustion(self):
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=2, trials=4, seed=5)
        records = run_bilinear(K3, cfg)
        expected = [
            replace(base_exhaustion(K3, p, cfg), strategy="bilinear") for p in (1, 2)
        ]
        assert records == expected

    def test_k3_alpha_nearly_monotone(self):
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=3, trials=6, seed=1)
        records = run_bilinear(K3, cfg)
        assert len(records) == 3
        assert records[2].alpha >= records[1].alpha - 0.01

    def test_single_optimization_per_depth_from_three_on(self, monkeypatch):
        calls = {"n": 0}
        original = strategies_module.maximize_bounded

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(strategies_module, "maximize_bounded", counting)
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=5, trials=4, seed=2)
        records = run_bilinear(K3, cfg)
        # 4 trials at each of p=1,2, then exactly one optimization per depth
        assert calls["n"] == 2 * 4 + 3
        for rec in records[2:]:
            assert rec.nfev_total < sum(r.nfev_total for r in records[:2])

    def test_depth_one_only(self):
        records = run_bilinear(K3, small_cfg(REGULAR_BOUNDS, max_depth=1, trials=3))
        assert [r.depth for r in records] == [1]


class TestRunParametersFixing:
    def test_identity_seeded_trial_starts_at_previous_optimum(self):
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=2, trials=4, seed=7)
        records = run_parameters_fixing(K3, cfg)
        prev = records[0]
        ev = ExpectationEvaluator(K3)
        appended = Parameters(
            gammas=prev.phi_star.gammas + (0.0,), betas=prev.phi_star.betas + (0.0,)
        )
        assert ev.expectation(appended) == prev.f_star

    def test_alpha_non_decreasing(self):
        g = gen_random_regular(8, 3, 1)
        cfg = small_cfg(bounds_for_graph(classify(g)), max_depth=4, trials=4, seed=3)
        records = run_parameters_fixing(g, cfg)
        for a, b in zip(records, records[1:]):
            assert b.alpha >= a.alpha - 1e-9

    def test_k2_exact_at_every_depth(self):
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=3, trials=6, seed=0)
        records = run_parameters_fixing(K2, cfg)
        for rec in records:
            assert abs(rec.alpha - 1.0) < 1e-5


class TestRunLayerwise:
    def test_frozen_prefix_is_exact(self):
        g = gen_random_regular(8, 3, 2)
        cfg = small_cfg(bounds_for_graph(classify(g)), max_depth=4, trials=4, seed=5)
        records = run_layerwise(g, cfg)
        for prev, cur in zip(records, records[1:]):
            assert cur.phi_star.gammas[: prev.depth] == prev.phi_star.gammas
            assert cur.phi_star.betas[: prev.depth] == prev.phi_star.betas

    def test_alpha_non_decreasing(self):
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=4, trials=4, seed=4)
        records = run_layerwise(K3, cfg)
        for a, b in zip(records, records[1:]):
            assert b.alpha >= a.alpha - 1e-9

    def test_never_beats_parameters_fixing(self):
        g = gen_random_regular(8, 3, 6)
        cfg = small_cfg(bounds_for_graph(classify(g)), max_depth=4, trials=6, seed=8)
        layerwise = run_layerwise(g, cfg)
        fixing = run_parameters_fixing(g, cfg)
        for lw, pf in zip(layerwise, fixing):
            assert lw.f_star <= pf.f_star + 1e-6


class TestRunLinearRamp:
    def test_records_shape_and_bounds(self):
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=3, trials=1)
        records = run_linear_ramp(K3, cfg)
        assert [r.depth for r in records] == [1, 2, 3]
        for rec in records:
            assert REGULAR_BOUNDS.contains(rec.phi_star)
            assert 0.0 <= rec.alpha <= 1.0 + 1e-9
            assert rec.strategy == "linear_ramp"


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(STRATEGIES) == {
            "bilinear",
            "parameters_fixing",
            "layerwise",
            "linear_ramp",
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(max_depth=0, bounds=REGULAR_BOUNDS)
        with pytest.raises(ValueError):
            StrategyConfig(max_depth=1, bounds=REGULAR_BOUNDS, trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [("max_depth", 2.0), ("trials", 2.5), ("trials", True), ("rng_seed", 1.0), ("rng_seed", "3")],
    )
    def test_config_names_a_field_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            StrategyConfig(**{"max_depth": 2, "bounds": REGULAR_BOUNDS, field: value})

    def test_config_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^rng_seed must be >= 0, got -1$"):
            StrategyConfig(max_depth=2, bounds=REGULAR_BOUNDS, rng_seed=-1)

    def test_config_accepts_numpy_integers(self):
        cfg = StrategyConfig(max_depth=np.int64(2), bounds=REGULAR_BOUNDS, rng_seed=np.uint32(5))
        assert (cfg.max_depth, cfg.rng_seed) == (2, 5)


class TestDepthRecordInvariants:
    def test_alpha_consistent_with_f_star(self):
        g = gen_random_regular(8, 3, 9)
        c_max = max_cut_brute_force(g)[0]
        cfg = small_cfg(bounds_for_graph(classify(g)), max_depth=3, trials=3, seed=2)
        for runner in (run_bilinear, run_parameters_fixing, run_layerwise):
            for rec in runner(g, cfg):
                assert abs(rec.alpha - rec.f_star / c_max) <= 1e-12
                assert cfg.bounds.contains(rec.phi_star)
                assert 0.0 <= rec.alpha <= 1.0 + 1e-9


def _non_adiabatic(g, cfg):
    return non_adiabatic_progression(g, cfg.max_depth, trials=cfg.trials, seed=cfg.rng_seed)


def _bits(out) -> list:
    """Every field of a run's output, floats as hex."""
    rows = []
    for r in out:
        phi = r if isinstance(r, Parameters) else r.phi_star
        row = [x.hex() for x in phi.gammas + phi.betas]
        if not isinstance(r, Parameters):
            row += [r.depth, r.strategy, r.f_star.hex(), r.alpha.hex(), r.nfev_total, r.converged]
        rows.append(row)
    return rows


class TestBatchedProbes:
    """The strategies hand each point the optimizer asks for, with its
    gradient's probes, to `advance_probes`; their records must equal, bit
    for bit, those of runs whose optimizer sees a plain function objective."""

    @pytest.mark.parametrize(
        "run, g, bounds",
        [
            (run_bilinear, gen_erdos_renyi(9, 0.5, 3), GENERAL_BOUNDS),
            (run_layerwise, gen_random_regular(8, 3, 1), REGULAR_BOUNDS),
            (run_parameters_fixing, gen_random_regular(8, 3, 2), REGULAR_BOUNDS),
            (run_linear_ramp, gen_erdos_renyi(7, 0.6, 4), GENERAL_BOUNDS),
            (_non_adiabatic, gen_random_regular(8, 3, 3), GENERAL_BOUNDS),
        ],
        ids=["bilinear", "layerwise", "parameters_fixing", "linear_ramp", "non_adiabatic"],
    )
    def test_records_match_a_plain_objective(self, run, g, bounds, monkeypatch):
        cfg = small_cfg(bounds, max_depth=4, trials=3, seed=5)
        advance, served = strategies_module.advance_probes, []

        def counting(evaluator, angles):
            advance(evaluator, angles)
            served.append(len(angles))

        monkeypatch.setattr(strategies_module, "advance_probes", counting)
        batched = run(g, cfg)
        # Every block is a point and its probes: 1 + 4 rows per layer varied.
        assert served and all(k % 4 == 1 for k in served)
        optimize = strategies_module.maximize_bounded
        monkeypatch.setattr(
            strategies_module,
            "maximize_bounded",
            lambda objective, *args: optimize(lambda phi: objective(phi), *args),
        )
        served.clear()
        plain = run(g, cfg)
        assert served == []
        assert _bits(batched) == _bits(plain)

    @pytest.mark.parametrize(
        "run",
        [run_bilinear, run_parameters_fixing, run_layerwise, run_linear_ramp, _non_adiabatic],
        ids=["bilinear", "parameters_fixing", "layerwise", "linear_ramp", "non_adiabatic"],
    )
    def test_every_evaluation_inside_an_optimization_is_a_whole_request(self, run, monkeypatch):
        # The evaluator keeps the values of its last stack only, so a one-row
        # miss inside a request would evict the request's values, and each
        # later probe of it would run alone: the same values and nfev, slower.
        optimize, advance = strategies_module.maximize_bounded, ExpectationEvaluator._advance
        request, stacks = [], []

        def optimizing(objective, phi0, *args):
            request.append(1 + 4 * phi0.p)  # the point and 4 probes per varied layer
            try:
                return optimize(objective, phi0, *args)
            finally:
                request.pop()

        def recording(ev, angles, value=True):
            if request:
                stacks.append((len(angles), request[-1]))
            return advance(ev, angles, value)

        monkeypatch.setattr(strategies_module, "maximize_bounded", optimizing)
        monkeypatch.setattr(ExpectationEvaluator, "_advance", recording)
        run(gen_random_regular(8, 3, 3), small_cfg(GENERAL_BOUNDS, max_depth=3, trials=2, seed=5))
        assert stacks
        assert all(rows == whole for rows, whole in stacks)

    def test_one_and_two_cpus_give_equal_records_at_sixteen_qubits(self, monkeypatch):
        # At n = 16 one CPU advances each gradient's probes on one lane, one
        # row at a time, and two CPUs on two lanes.
        g = gen_random_regular(16, 3, 7)
        cfg = small_cfg(REGULAR_BOUNDS, max_depth=3, trials=2)
        advance, served = strategies_module.advance_probes, []

        def counting(evaluator, angles):
            advance(evaluator, angles)
            served.append(len(angles))

        monkeypatch.setattr(strategies_module, "advance_probes", counting)
        records = []
        for cpus in (1, 2):
            monkeypatch.setattr(simulator, "_cpus", lambda cpus=cpus: cpus)
            records.append(_bits(run_bilinear(g, cfg)))
            assert served and all(k % 4 == 1 for k in served)
            served.clear()
        assert records[0] == records[1]
