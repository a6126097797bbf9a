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
