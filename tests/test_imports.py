"""Every name the benchmark harness imports from the package still resolves,
and the integer-forcing module keeps to its own layer.

perfbench/ is frozen against the library's public names; a deletion that
removes one of them would only show when the benchmark runs.  This parses
the harness's imports with ast instead of importing the harness itself.
"""

import ast
import importlib
from collections import Counter
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


def _names(tree):
    """Every name a parsed module binds, reads or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_gram_adapters_factor_the_noise_gram():
    # Every search the library and the command line run starts from the
    # channel's square-root factor F; K = F^H F and its Cholesky factor serve
    # only callers that hold K, through lll_search and brute_force_search.
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    gram_names = {"hermitian_inverse", "cholesky_lower", "lll_search", "brute_force_search"}
    assert gram_names.isdisjoint(_names(cli))
    tree = ast.parse((PACKAGE / "integer_forcing.py").read_text())
    adapters = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name in {"lll_search", "brute_force_search"}]
    inside = sum(list(_names(fn)).count("cholesky_lower") for fn in adapters)
    # the import, then one call in each adapter
    assert list(_names(tree)).count("cholesky_lower") == inside + 1 == 3


def _uses(node):
    """Every name a node reads, reads as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _private_definitions(node):
    """The private names a module's top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def test_every_private_top_level_name_is_used_elsewhere_in_the_package():
    # A private name nothing else in the package reads is dead code: no
    # caller outside the package may rely on it.
    statements = [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    uses = Counter(name for _, node in statements for name in _uses(node))
    unused = [f"{module}: {name}" for module, node in statements
              for name in _private_definitions(node)
              if uses[name] == list(_uses(node)).count(name)]
    assert unused == []
