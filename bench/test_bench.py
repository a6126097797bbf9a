"""Tests of the benchmark itself: `python3 -m pytest bench -q` from the repo root."""

from __future__ import annotations

import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import qaoa_maxcut  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Small variants under their own names, so no stored reference applies.
TINY = [
    workloads.Desk(name="desk-tiny", n=6, max_depth=3, trials=2, symmetry_samples=2),
    workloads.Bilinear(name="bilinear-tiny", n=6, max_depth=3, trials=2),
    workloads.Landscape(name="landscape-tiny", n=8, resolution=3),
]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_smoke_untraced_and_traced(wl, tmp_path):
    wl = wl.at_seed(3)
    inputs = wl.prepare(tmp_path)
    plain = worker._untraced(wl, inputs, seconds=0.0)
    assert plain["attempted"] > 0 and plain["failed"] == 0, plain["problems"]
    assert len(plain["run_s"]) == 1 and plain["nfev"] > 0

    traced = worker._traced(wl, inputs, tmp_path)
    assert traced["failed"] == 0, traced["problems"]
    assert set(traced["layers"]) == set(tracing.PER_LAYER)
    assert traced["layers"]["simulator.expectation.calls"] > 0


def test_checks_catch_a_wrong_value(tmp_path):
    wl = TINY[1]
    inputs = wl.prepare(tmp_path)
    got = wl.collect(inputs, wl.body(inputs))
    got["records"][-1]["f_star"] += 1e-6
    assert wl.check(got).failed == 1

    wl = TINY[2]
    inputs = wl.prepare(tmp_path)
    got = wl.collect(inputs, wl.body(inputs))
    got["rows"][4]["alpha"] = repr(float(got["rows"][4]["alpha"]) + 1e-6)
    del got["rows"][-1]
    assert wl.check(got).failed == 2


def test_a_raising_body_counts_as_failed_operations(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr(qaoa_maxcut, "run_bilinear", broken)
    wl = TINY[1]
    plain = worker._untraced(wl, wl.prepare(tmp_path), seconds=0.0)
    assert plain["failed"] == plain["attempted"] == wl.max_depth


def test_seeds_give_isomorphic_copies_of_the_instance():
    desk = workloads.WORKLOADS["desk-n10"]
    g = desk.graph()
    for seed in (1, 2):
        copy = desk.at_seed(seed)
        assert copy.instance_seed != desk.instance_seed
        assert workloads.isomorphic(g, copy.graph())
    prism = qaoa_maxcut.Graph(n=6, edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))
    k33 = qaoa_maxcut.Graph(n=6, edges=tuple((u, v) for u in range(3) for v in range(3, 6)))
    assert not workloads.isomorphic(prism, k33)
    assert workloads.isomorphic(prism, workloads.relabel(prism, 4))


def test_relabelling_keeps_the_landscape():
    g = workloads.Bilinear(n=8).graph()
    h = workloads.relabel(g, 5)
    assert h != g and sorted(h.degrees()) == sorted(g.degrees())
    phi = qaoa_maxcut.Parameters(gammas=(0.3, 0.7), betas=(0.4, 0.1))
    f = qaoa_maxcut.ExpectationEvaluator(g).expectation(phi)
    assert math.isclose(f, qaoa_maxcut.ExpectationEvaluator(h).expectation(phi), abs_tol=1e-12)


def test_metric_and_workload_names():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(workloads.REFERENCE) == set(names)
    for name in [*run.END_TO_END, *tracing.PER_LAYER, *names]:
        assert NAME.fullmatch(name), name


def _bindings() -> dict:
    holders = [qaoa_maxcut] + [importlib.import_module(f"qaoa_maxcut.{m}") for m in tracing.LAYERS]
    snapshot = {}
    for holder in holders:
        for key, value in vars(holder).items():
            snapshot[(holder.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    snapshot[(holder.__name__, key, k)] = v
    for cls in (qaoa_maxcut.ExpectationEvaluator, qaoa_maxcut.ResultSet):
        for key, value in vars(cls).items():
            snapshot[(cls.__name__, key)] = value
    return snapshot


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    tracer = tracing.Tracer(qaoa_maxcut)
    tracer.install()
    try:
        wrapped = _bindings()
        for key in [
            ("qaoa_maxcut.graphs", "cut_table"),
            ("qaoa_maxcut.simulator", "cut_table"),
            ("qaoa_maxcut.strategies", "maximize_bounded"),
            ("qaoa_maxcut.symmetry", "maximize_bounded"),
            ("qaoa_maxcut", "run_bilinear"),
            ("qaoa_maxcut.strategies", "STRATEGIES", "bilinear"),
            ("qaoa_maxcut.cli", "main"),
            ("ExpectationEvaluator", "expectation"),
        ]:
            assert wrapped[key] is not before[key], key
        # Private kernels are never wrapped.
        for key in [("qaoa_maxcut.simulator", "_mixer_kernel"), ("qaoa_maxcut.optimize", "_fd_gradient")]:
            assert wrapped[key] is before[key], key
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_the_traced_wall_time(tmp_path):
    wl = TINY[0]
    inputs = wl.prepare(tmp_path)
    tracer = tracing.Tracer(qaoa_maxcut)
    with tracer.installed(), tracer.span("bench.body"):
        wl.body(inputs)
    spans, own = tracer.spans, tracer.self_times()
    assert len(spans) > 100
    assert math.isclose(sum(own), spans[0].duration, rel_tol=tracing.SELF_TIME_TOLERANCE)
    assert min(own) > -tracing.SELF_TIME_TOLERANCE
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end


def test_tail_has_ten_samples_beyond_it():
    value, pct = tracing.tail([float(k) for k in range(64)])
    assert (value, pct) == (53.0, 100.0 * 54 / 64)
    assert sum(1 for k in range(64) if k > value) == 10
    assert tracing.tail([1.0, 2.0]) == (2.0, 100.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-n10", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

