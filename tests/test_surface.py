"""Every public name the package advertises resolves to a live object."""

import ast
import importlib
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


def test_import_skips_scipy_stats():
    # scipy.stats alone costs about half a second to import; the library
    # uses scipy for L-BFGS-B only, so a fresh process must not load it.
    code = "import sys, qaoa_maxcut, qaoa_maxcut.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(qaoa_maxcut.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
