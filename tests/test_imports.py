"""Every name the benchmark harness imports from the package still resolves,
and the integer-forcing module keeps to its own layer.

perfbench/ is frozen against the library's public names; a deletion that
removes one of them would only show when the benchmark runs.  This parses
the harness's imports with ast instead of importing the harness itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fadingmac

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(fadingmac.__file__).resolve().parent


def _package_imports():
    """(module, name) for each name perfbench/*.py imports from fadingmac."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "fadingmac":
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_perfbench_imports_something_from_the_package():
    modules = {module for module, _ in _package_imports()}
    assert {"fadingmac.bounds", "fadingmac.montecarlo", "fadingmac.cli"} <= modules


@pytest.mark.parametrize("module, name", _package_imports())
def test_perfbench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_every_exported_name_resolves():
    missing = [name for name in fadingmac.__all__ if not hasattr(fadingmac, name)]
    assert missing == []


def test_integer_forcing_imports_neither_bounds_nor_montecarlo():
    # The ML receiver's laws live in bounds and the rate grid of a CDF is the
    # command line's, so integer forcing stands on capacity, errors and linalg.
    path = PACKAGE / "integer_forcing.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update([node.module] if node.module else [a.name for a in node.names])
    assert modules == {"capacity", "errors", "linalg"}
