import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_maxcut.experiment import (
    ConfigError,
    ExperimentConfig,
    InstanceSpec,
    ResultSet,
    emit_alpha_table,
    emit_landscape,
    emit_params_trace,
    run_experiment,
)
from qaoa_maxcut.graphs import Graph
from qaoa_maxcut.optimize import Bounds, OptimizerConfig
from qaoa_maxcut.simulator import Parameters
from qaoa_maxcut.strategies import STRATEGIES, DepthRecord
from qaoa_maxcut.symmetry import SymmetryReport

K2_SPEC = InstanceSpec(kind="regular", n=2, degree=1, seed=0)
K2 = Graph(n=2, edges=((0, 1),))


def small_config(**overrides):
    base = dict(
        instances=(K2_SPEC,),
        strategies=("bilinear",),
        max_depth=3,
        trials=8,
        rng_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _box(lo_hi):
    return st.lists(lo_hi, min_size=2, max_size=2, unique=True).map(sorted)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-12, max_value=1.0)
# (n, degree) pairs that some regular graph has; others are rejected at construction.
_regular_sizes = st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1).filter(lambda d: n * d % 2 == 0))
)
_specs = st.one_of(
    st.builds(
        lambda size, seed: InstanceSpec(kind="regular", n=size[0], seed=seed, degree=size[1]),
        _regular_sizes,
        st.integers(0, 2**32),
    ),
    st.builds(
        InstanceSpec,
        kind=st.just("erdos_renyi"),
        n=st.integers(1, 20),
        seed=st.integers(0, 2**32),
        prob=st.floats(0.0, 1.0),
    ),
)
_configs = st.builds(
    ExperimentConfig,
    instances=st.lists(_specs, min_size=1, max_size=3, unique_by=lambda s: s.instance_id).map(
        tuple
    ),
    strategies=st.lists(st.sampled_from(sorted(STRATEGIES)), min_size=1, unique=True).map(tuple),
    max_depth=st.integers(1, 50),
    trials=st.integers(1, 50),
    rng_seed=st.integers(0, 2**64),
    optimizer=st.builds(
        OptimizerConfig,
        gradient_step=_positive,
        convergence_tolerance=_positive,
        max_iterations=st.integers(1, 10**6),
    ),
    bounds=st.none() | st.builds(lambda g, b: Bounds(*g, *b), _box(_finite), _box(_finite)),
    symmetry_samples=st.integers(0, 1000),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _result_sets(draw):
    rs = ResultSet(meta=draw(st.dictionaries(st.text(max_size=5), _json_values, max_size=4)))
    keys = st.tuples(st.text(max_size=6), st.text(max_size=6), st.integers(1, 3))
    for instance, strategy, depth in draw(st.lists(keys, max_size=6, unique=True)):
        angles = st.lists(_finite, min_size=depth, max_size=depth).map(tuple)
        record = DepthRecord(
            depth=depth,
            phi_star=Parameters(gammas=draw(angles), betas=draw(angles)),
            f_star=draw(_finite),
            alpha=draw(_finite),
            nfev_total=draw(st.integers(0, 10**9)),
            strategy=strategy,
            converged=draw(st.booleans()),
        )
        rs.add(instance, record)
    reports = st.builds(
        SymmetryReport,
        transform=st.text(max_size=8),
        max_abs_deviation=st.floats(allow_nan=False),
        samples=st.integers(1, 1000),
    )
    rs.symmetry_reports = draw(st.lists(reports, max_size=3))
    return rs


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestInstanceSpec:
    def test_regular_needs_degree(self):
        with pytest.raises(ConfigError, match="degree"):
            InstanceSpec(kind="regular", n=4, seed=0)

    def test_erdos_renyi_needs_prob(self):
        with pytest.raises(ConfigError, match="probability"):
            InstanceSpec(kind="erdos_renyi", n=4, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown"):
            InstanceSpec(kind="torus", n=4, seed=0)

    def test_unsatisfiable_spec_names_instance(self):
        with pytest.raises(ConfigError, match="reg3-n5-s0"):
            InstanceSpec(kind="regular", n=5, degree=3, seed=0)

    @pytest.mark.parametrize(
        "n, degree, reason",
        [
            (5, 3, "n\\*d must be even"),
            (7, 1, "n\\*d must be even"),
            (4, 4, "must be smaller than n"),
            (3, 5, "must be smaller than n"),
            (1, 1, "must be smaller than n"),
            (6, -1, "must be >= 0"),
        ],
        ids=["odd-15", "odd-7", "degree-n", "degree-above-n", "one-vertex", "negative-degree"],
    )
    def test_impossible_regular_spec_rejected_at_load(self, n, degree, reason):
        # The checks `gen_random_regular` makes, at config load, before any work.
        spec = {"kind": "regular", "n": n, "degree": degree, "seed": 0}
        with pytest.raises(ConfigError, match=f"reg{degree}-n{n}-s0 is unsatisfiable: .*{reason}"):
            ExperimentConfig.from_dict({"instances": [spec], "strategies": ["bilinear"]})

    @pytest.mark.parametrize("n, degree", [(1, 0), (2, 1), (5, 4), (6, 3), (20, 3)])
    def test_possible_regular_spec_loads(self, n, degree):
        spec = InstanceSpec(kind="regular", n=n, degree=degree, seed=0)
        assert spec.build().degrees() == [degree] * n

    @pytest.mark.parametrize(
        "prob", [1.5, -0.1, math.nan, True, "0.5"], ids=["above", "below", "nan", "bool", "string"]
    )
    def test_bad_prob_rejected_at_load(self, prob):
        with pytest.raises(ConfigError, match=r"prob must be a number in \[0, 1\]"):
            InstanceSpec(kind="erdos_renyi", n=4, seed=0, prob=prob)

    def test_ids(self):
        assert K2_SPEC.instance_id == "reg1-n2-s0"
        er = InstanceSpec(kind="erdos_renyi", n=10, prob=0.5, seed=3)
        assert er.instance_id == "er0.5-n10-s3"


class TestExperimentConfig:
    def test_zero_instances_rejected(self):
        with pytest.raises(ConfigError, match="no instances"):
            ExperimentConfig(instances=(), strategies=("bilinear",))

    def test_zero_strategies_rejected(self):
        with pytest.raises(ConfigError, match="no strategies"):
            ExperimentConfig(instances=(K2_SPEC,), strategies=())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategies"):
            ExperimentConfig(instances=(K2_SPEC,), strategies=("annealing",))

    def test_duplicate_strategy_rejected(self):
        with pytest.raises(ConfigError, match="duplicate strategies"):
            ExperimentConfig(instances=(K2_SPEC,), strategies=("bilinear", "bilinear"))

    def test_dict_round_trip(self):
        cfg = small_config(bounds=Bounds(0.0, math.pi, 0.0, math.pi / 2))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @settings(max_examples=200, deadline=None)
    @given(_configs)
    def test_json_round_trip_keeps_config_and_hash(self, cfg):
        back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_hash_stable_for_equal_configs(self):
        assert small_config().config_hash() == small_config().config_hash()

    def test_hash_changes_with_any_field(self):
        base = small_config()
        variants = [
            small_config(max_depth=4),
            small_config(trials=9),
            small_config(rng_seed=2),
            small_config(strategies=("layerwise",)),
            small_config(instances=(InstanceSpec(kind="regular", n=4, degree=1, seed=0),)),
            small_config(bounds=Bounds(0.0, 1.0, 0.0, 1.0)),
            small_config(symmetry_samples=5),
        ]
        hashes = {base.config_hash()} | {v.config_hash() for v in variants}
        assert len(hashes) == 1 + len(variants)

    def test_readme_config_hash_is_pinned(self):
        cfg = ExperimentConfig.from_dict(
            {
                "instances": [
                    {"kind": "regular", "n": 10, "degree": 3, "seed": 7},
                    {"kind": "regular", "n": 10, "degree": 4, "seed": 3},
                    {"kind": "erdos_renyi", "n": 12, "prob": 0.5, "seed": 5},
                ],
                "strategies": ["bilinear", "parameters_fixing", "layerwise"],
                "max_depth": 8,
                "trials": 20,
                "rng_seed": 11,
                "optimizer": {
                    "gradient_step": 1e-6,
                    "convergence_tolerance": 1e-9,
                    "max_iterations": 500,
                },
                "bounds": None,
                "symmetry_samples": 0,
            }
        )
        assert cfg.config_hash() == (
            "4fc65971afa66f2f5bdf09336a6541ddfd0797fbe32dab3d243deea8fa217cc5"
        )

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            ExperimentConfig.from_file(path)


class TestRunExperiment:
    def test_k2_bilinear_is_exact_at_every_depth(self):
        rs = run_experiment(small_config())
        assert len(rs.records) == 3
        for (instance, strategy, depth), rec in rs.records.items():
            assert instance == "reg1-n2-s0"
            assert strategy == "bilinear"
            assert abs(rec.alpha - 1.0) < 1e-6

    def test_rerun_is_byte_identical_except_timestamp(self):
        cfg = small_config()
        docs = []
        for _ in range(2):
            doc = json.loads(run_experiment(cfg).to_json())
            doc["meta"].pop("created_at")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_an_edgeless_instance_fails_by_name_before_any_run(self, monkeypatch):
        def never(g, cfg):
            pytest.fail("a strategy ran before every instance was checked")

        monkeypatch.setitem(STRATEGIES, "bilinear", never)
        edgeless = InstanceSpec(kind="erdos_renyi", n=4, prob=0.0, seed=0)
        cfg = small_config(instances=(InstanceSpec(kind="regular", n=10, degree=3, seed=7), edgeless))
        with pytest.raises(ConfigError, match="instance er0-n4-s0 has no edges"):
            run_experiment(cfg)

    def test_symmetry_reports_included_when_requested(self):
        rs = run_experiment(small_config(max_depth=1, trials=2, symmetry_samples=3))
        assert len(rs.symmetry_reports) == 6
        for report in rs.symmetry_reports:
            assert report.max_abs_deviation <= 1e-9


class TestResultSet:
    def test_json_round_trip_lossless(self):
        rs = run_experiment(small_config(symmetry_samples=2))
        assert ResultSet.from_json(rs.to_json()) == rs

    @settings(max_examples=200, deadline=None)
    @given(_result_sets())
    def test_json_round_trip_of_any_result_set(self, rs):
        text = rs.to_json()
        back = ResultSet.from_json(text)
        assert back == rs
        assert back.to_json() == text

    def test_non_finite_numbers_are_written_as_strings_and_read_back(self):
        rs = run_experiment(small_config(max_depth=1, trials=2))
        key, rec = next(iter(rs.records.items()))
        rs.records[key] = DepthRecord(
            rec.depth, Parameters((math.inf,), (-math.inf,)), math.nan, rec.alpha, rec.nfev_total,
            rec.strategy, rec.converged,
        )
        rs.symmetry_reports = [
            SymmetryReport(transform=str(x), max_abs_deviation=x, samples=1)
            for x in (math.nan, math.inf, -math.inf, 0.5)
        ]
        text = rs.to_json()
        doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))
        assert [r["max_abs_deviation"] for r in doc["symmetry_reports"]] == ["nan", "inf", "-inf", 0.5]
        (row,) = doc["records"]
        assert (row["gammas"], row["betas"], row["f_star"]) == (["inf"], ["-inf"], "nan")
        back = ResultSet.from_json(text)
        assert back.to_json() == text
        assert math.isnan(back.records[key].f_star)
        assert back.records[key].phi_star == rs.records[key].phi_star

    def test_non_finite_meta_is_refused(self):
        with pytest.raises(ValueError, match="JSON"):
            ResultSet(meta={"x": math.nan}).to_json()

    def test_duplicate_key_rejected(self):
        rs = run_experiment(small_config(max_depth=1, trials=2))
        rec = next(iter(rs.records.values()))
        with pytest.raises(ValueError, match="duplicate"):
            rs.add("reg1-n2-s0", rec)

    def test_save_and_load(self, tmp_path):
        rs = run_experiment(small_config(max_depth=1, trials=2))
        path = tmp_path / "results.json"
        rs.save(path)
        assert ResultSet.load(path) == rs


class TestAlphaTable:
    def test_header_and_single_row(self):
        rs = run_experiment(small_config(max_depth=1, trials=2))
        rows = parse_csv(emit_alpha_table(rs))
        assert rows[0] == ["instance", "strategy", "p", "F_star", "alpha", "nfev_cumulative"]
        assert len(rows) == 2

    def test_alpha_in_unit_interval_and_cumulative_monotone(self):
        cfg = small_config(
            strategies=("bilinear", "layerwise"), max_depth=3, trials=4
        )
        rows = parse_csv(emit_alpha_table(run_experiment(cfg)))[1:]
        by_group = {}
        for instance, strategy, p, f_star, alpha, cumulative in rows:
            assert 0.0 <= float(alpha) <= 1.0 + 1e-9
            by_group.setdefault((instance, strategy), []).append(int(cumulative))
        for counts in by_group.values():
            assert counts == sorted(counts)
            assert all(c > 0 for c in counts)

    def test_rows_sorted(self):
        cfg = small_config(strategies=("layerwise", "bilinear"), max_depth=2, trials=2)
        rows = parse_csv(emit_alpha_table(run_experiment(cfg)))[1:]
        keys = [(r[0], r[1], int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            emit_alpha_table(ResultSet(meta={}))


class TestParamsTrace:
    def test_triangular_row_count_and_unique_pairs(self):
        rs = run_experiment(small_config(max_depth=3, trials=2))
        rows = parse_csv(emit_params_trace(rs, "reg1-n2-s0", "bilinear"))
        assert rows[0] == ["p", "j", "gamma_j", "beta_j"]
        body = rows[1:]
        assert len(body) == 1 + 2 + 3
        pairs = [(int(r[0]), int(r[1])) for r in body]
        assert len(set(pairs)) == len(pairs)
        assert all(1 <= j <= p for p, j in pairs)

    def test_angles_within_bounds(self):
        rs = run_experiment(small_config(max_depth=3, trials=2))
        for row in parse_csv(emit_params_trace(rs, "reg1-n2-s0", "bilinear"))[1:]:
            assert 0.0 <= float(row[2]) <= math.pi / 2  # regular-class gamma box
            assert 0.0 <= float(row[3]) <= math.pi / 2

    def test_missing_selection_rejected(self):
        rs = run_experiment(small_config(max_depth=1, trials=2))
        with pytest.raises(ValueError, match="no records"):
            emit_params_trace(rs, "reg1-n2-s0", "layerwise")


class TestLandscape:
    def test_grid_size(self):
        rows = parse_csv(emit_landscape(K2, 3))
        assert rows[0] == ["gamma", "beta", "alpha"]
        assert len(rows) == 1 + 9

    def test_k2_matches_closed_form(self):
        for gamma, beta, alpha in (
            (float(r[0]), float(r[1]), float(r[2]))
            for r in parse_csv(emit_landscape(K2, 8))[1:]
        ):
            closed = 0.5 * (1.0 + math.sin(4 * beta) * math.sin(gamma))
            assert abs(alpha - closed) <= 1e-9

    def test_point_symmetry_on_grid(self):
        resolution = 8  # even, so the symmetry maps grid points onto grid points
        g = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        rows = parse_csv(emit_landscape(g, resolution))[1:]
        table = {}
        for idx, row in enumerate(rows):
            i, j = divmod(idx, resolution)
            table[(i, j)] = float(row[2])
        for (i, j), alpha in table.items():
            mirrored = table[((-i) % resolution, (resolution // 2 - j) % resolution)]
            assert abs(alpha - mirrored) <= 1e-9

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="resolution"):
            emit_landscape(K2, 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            emit_landscape(Graph(n=3, edges=()), 4)
