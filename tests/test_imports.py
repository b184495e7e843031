"""Every name the benchmark harness imports from the package still resolves.

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
