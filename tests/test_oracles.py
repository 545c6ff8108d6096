"""Dependency direction between the evaluators and their oracles.

The evaluator modules compute what the library prints; cstk.oracles holds the
independent second routes that the checks and tests compare them against.
Only verify and cli may import the oracles, and the oracles may lean on no
evaluator but specfun, so a check never compares a route with itself.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

from cstk import oracles

SRC = Path(oracles.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
ORACLE_IMPORTERS = {"verify", "cli"}
EVALUATORS = ("specfun", "quadrature", "measures", "poly2d", "coherent", "transforms")


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _imported_modules(nodes):
    """cstk module names and top-level package names imported by the given nodes."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out |= {alias.name.removeprefix("cstk.").split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level and not node.module:  # from . import x
                out |= {alias.name for alias in node.names}
            else:
                out.add((node.module or "").removeprefix("cstk.").split(".")[0])
    return out


def _module_level_imports(tree):
    """Import nodes outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(child)
            visit(child)

    visit(tree)
    return found


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted({p.stem for p in SRC.glob("*.py")} - ORACLE_IMPORTERS - {"oracles"}))
def test_only_verify_and_cli_import_the_oracles(module):
    imported = _imported_modules(ast.walk(_tree(module)))
    assert "oracles" not in imported, module


def test_oracles_lean_on_specfun_alone():
    imported = _imported_modules(_module_level_imports(_tree("oracles")))
    allowed = {"__future__", "specfun", "errors", "numpy"} | set(sys.stdlib_module_names)
    assert imported <= allowed, imported - allowed
    # mpmath stays inside the function that needs it
    assert "mpmath" in _imported_modules(ast.walk(_tree("oracles")))


def test_oracles_are_documented_and_not_exported_by_evaluators():
    names = set(oracles.__all__)
    section = re.search(r"^## Oracles\n(.*?)(?=^## |\Z)", README.read_text(), re.S | re.M)
    assert section, "README has no Oracles section"
    missing = [n for n in sorted(names) if f"`{n}`" not in section.group(1)]
    assert not missing, missing
    for module in EVALUATORS:
        assert not names & _all_names(_tree(module)), module
