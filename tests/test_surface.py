"""Every public name the package advertises resolves to a live object."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qaoa_maxcut
from qaoa_maxcut import (
    ExperimentConfig,
    Graph,
    InstanceSpec,
    OptimizerConfig,
    StrategyConfig,
    base_exhaustion,
    emit_landscape,
    gen_erdos_renyi,
    gen_random_regular,
    linear_ramp_init,
    run_symmetry_suite,
)
from qaoa_maxcut.experiment import ConfigError
from qaoa_maxcut.optimize import REGULAR_BOUNDS, Bounds

MODULES = sorted(m.name for m in pkgutil.iter_modules(qaoa_maxcut.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qaoa_maxcut.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_package_reexports_are_public_names_of_their_modules():
    tree = ast.parse(Path(qaoa_maxcut.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"qaoa_maxcut.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not public"
            assert getattr(qaoa_maxcut, alias.name) is getattr(module, alias.name)


def _fresh(code: str, cwd: Path) -> str:
    """Run `code` in a new interpreter that imports the package under test;
    return its stripped stdout."""
    src = str(Path(qaoa_maxcut.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_import_skips_scipy_stats(tmp_path):
    # scipy.stats and scipy.optimize each cost about half a second to import;
    # the library uses scipy for L-BFGS-B only and loads it on the first
    # optimization, so importing the package and its CLI loads no scipy module.
    code = f"import sys, qaoa_maxcut, qaoa_maxcut.cli; print({SCIPY_LOADED})"
    assert _fresh(code, tmp_path) == "[]"


def test_commands_that_do_not_optimize_skip_scipy_optimize(tmp_path):
    config = {
        "instances": [{"kind": "regular", "n": 4, "degree": 3, "seed": 0}],
        "strategies": ["bilinear"],
        "max_depth": 1,
        "trials": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    record = {
        "instance": "reg3-n4-s0", "strategy": "bilinear", "depth": 1, "gammas": [0.3],
        "betas": [0.4], "f_star": 4.0, "alpha": 1.0, "nfev": 9, "converged": True,
    }
    (tmp_path / "results.json").write_text(json.dumps({"meta": {}, "records": [record]}))
    commands = [
        ["landscape", "--kind", "regular", "--n", "4", "--degree", "3", "--seed", "0",
         "--resolution", "2"],
        ["verify", "--samples", "2"],
        ["gen", "--config", "config.json", "--out", "instances"],
        ["table", "--results", "results.json"],
        ["trace", "--results", "results.json", "--instance", "reg3-n4-s0",
         "--strategy", "bilinear"],
    ]
    code = (
        "import sys, contextlib, io\n"
        "from qaoa_maxcut.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, 'scipy.optimize' in sys.modules)"
    )
    assert _fresh(code, tmp_path) == "[0, 0, 0, 0, 0] False"


def test_optimization_loads_scipy_optimize(tmp_path):
    # Guards against the optimizer being dropped rather than deferred.
    code = (
        "import sys\n"
        "from qaoa_maxcut import gen_random_regular, run_bilinear, StrategyConfig\n"
        "from qaoa_maxcut.optimize import REGULAR_BOUNDS\n"
        "cfg = StrategyConfig(max_depth=2, bounds=REGULAR_BOUNDS, trials=2, rng_seed=1)\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "records = run_bilinear(gen_random_regular(6, 3, 0), cfg)\n"
        "print(before, len(records), 'scipy.optimize' in sys.modules)"
    )
    assert _fresh(code, tmp_path) == "False 2 True"


REG3 = InstanceSpec(kind="regular", n=6, seed=0, degree=3)

# (entry point, field as the message names it, least value, error class,
# call with the count set to v).
COUNTS = [
    ("Graph", "vertex count", 1, ValueError, lambda v: Graph(n=v, edges=())),
    ("gen_random_regular n", "n", 1, ValueError, lambda v: gen_random_regular(v, 0, 1)),
    ("gen_random_regular degree", "degree", 0, ValueError, lambda v: gen_random_regular(6, v, 1)),
    ("gen_random_regular seed", "seed", 0, ValueError, lambda v: gen_random_regular(6, 3, v)),
    ("gen_erdos_renyi", "n", 1, ValueError, lambda v: gen_erdos_renyi(v, 0.5, 1)),
    ("gen_erdos_renyi seed", "seed", 0, ValueError, lambda v: gen_erdos_renyi(6, 0.5, v)),
    (
        "OptimizerConfig", "max_iterations", 1, ValueError,
        lambda v: OptimizerConfig(max_iterations=v),
    ),
    *(
        (
            f"StrategyConfig {name}", name, least, ValueError,
            lambda v, name=name: StrategyConfig(
                **{"max_depth": 1, "bounds": REGULAR_BOUNDS, name: v}
            ),
        )
        for name, least in [("max_depth", 1), ("trials", 1), ("rng_seed", 0)]
    ),
    ("linear_ramp_init", "depth", 1, ValueError, lambda v: linear_ramp_init(v, 0.5)),
    (
        "base_exhaustion", "depth", 1, ValueError,
        lambda v: base_exhaustion(
            Graph(n=2, edges=((0, 1),)), v, StrategyConfig(max_depth=1, bounds=REGULAR_BOUNDS)
        ),
    ),
    *(
        (
            f"InstanceSpec {kind} {name}", name, least, ConfigError,
            lambda v, kind=kind, name=name: InstanceSpec(
                **{"kind": kind, "n": 6, "seed": 0, **extra, name: v}
            ),
        )
        for kind, extra in [("regular", {"degree": 3}), ("erdos_renyi", {"prob": 0.5})]
        for name, least in [("n", 1), ("seed", 0)]
    ),
    *(
        (
            f"ExperimentConfig {name}", name, least, ConfigError,
            lambda v, name=name: ExperimentConfig(
                instances=(REG3,), strategies=("bilinear",), **{name: v}
            ),
        )
        for name, least in [
            ("max_depth", 1), ("trials", 1), ("rng_seed", 0), ("symmetry_samples", 0)
        ]
    ),
    (
        "emit_landscape", "resolution", 2, ValueError,
        lambda v: emit_landscape(Graph(n=2, edges=((0, 1),)), v),
    ),
    *(
        (
            f"run_symmetry_suite {name}", name, least, ValueError,
            lambda v, name=name: run_symmetry_suite(**{"samples": 1, name: v}),
        )
        for name, least in [("samples", 1), ("seed", 0), ("max_p", 1)]
    ),
]


@pytest.mark.parametrize(
    "field, least, error, call", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS]
)
def test_every_public_count_is_an_integer_of_at_least_its_least_value(field, least, error, call):
    # A float of integral value, a bool and one below the least value each
    # fail at once, naming the field; the two config classes raise ConfigError.
    for value in (float(least + 1), True, False):
        with pytest.raises(error) as caught:
            call(value)
        assert f"{field} must be an integer, got {value!r}" in str(caught.value)
    with pytest.raises(error) as caught:
        call(least - 1)
    assert f"{field} must be >= {least}, got {least - 1}" in str(caught.value)


BOX = {"gamma_min": 0.0, "gamma_max": 1.0, "beta_min": 0.0, "beta_max": 1.0}

# (entry point, field as the message names it, call with the setting set to v).
NUMBERS = [
    *(
        (f"OptimizerConfig {name}", name, lambda v, name=name: OptimizerConfig(**{name: v}))
        for name in ("gradient_step", "convergence_tolerance")
    ),
    *((f"Bounds {name}", name, lambda v, name=name: Bounds(**{**BOX, name: v})) for name in BOX),
    ("linear_ramp_init", "delta_t", lambda v: linear_ramp_init(2, v)),
]


@pytest.mark.parametrize("field, call", [c[1:] for c in NUMBERS], ids=[c[0] for c in NUMBERS])
def test_every_public_float_setting_is_a_number_and_not_a_bool(field, call):
    # A bool, a string and None each fail at once, naming the setting.
    for value in (True, False, "0.5", None):
        with pytest.raises(ValueError) as caught:
            call(value)
        assert f"{field} must be a number, got {value!r}" in str(caught.value)
