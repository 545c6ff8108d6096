"""Dependency direction between the evaluators and their oracles, and the oracles'
cheaper routes held bit for bit to the ones they replaced.

The evaluator modules compute what the library prints; cstk.oracles holds the
independent second routes that the checks and tests compare them against.
Only verify and cli may import the oracles, and the oracles may lean on no
evaluator but specfun, so a check never compares a route with itself.
"""

import ast
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from cstk import oracles, verify
from cstk.specfun import DEFAULT_CONTROL

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


def _lauricella_dict(c, beta, u, v, w, ctl=DEFAULT_CONTROL):
    """lauricella_triple as it was before its per-j lists, kept as a reference: the same
    neighbour ratios with the terms kept in dicts keyed by (k, j)."""
    u, v, w = complex(u), complex(v), complex(w)
    total, comp = 0.0 + 0.0j, 0.0 + 0.0j
    first, cur = {}, {}
    prev_shell = math.inf
    for d in range(ctl.max_terms + 1):
        shell_mag = 0.0
        for j in range(d // 2 + 1):
            rem = d - 2 * j
            for k in range(rem // 2 + 1):
                n = rem - 2 * k
                if n == 0:
                    if k == 0 and j == 0:
                        term = 1.0 + 0.0j
                    elif k > 0:
                        s0 = 2 * k + j
                        dd = 2 * k + 2 * j
                        term = first[(k - 1, j)] * ((s0 - 1) * s0 * v) / ((c + dd - 2) * (c + dd - 1) * k)
                    else:
                        dd = 2 * j
                        term = first[(0, j - 1)] * ((beta + j - 1) * w) / ((c + dd - 2) * (c + dd - 1))
                    first[(k, j)] = term
                else:
                    s0 = n + 2 * k + j
                    dd = n + 2 * k + 2 * j
                    term = cur[(k, j)] * (s0 * u) / (n * (c + dd - 1))
                cur[(k, j)] = term
                shell_mag += abs(term)
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
        if d >= 2 and shell_mag + prev_shell <= max(ctl.rel_tol * abs(total), 1e-300):
            return total
        prev_shell = shell_mag
    raise AssertionError("reference not converged")


def test_lauricella_triple_matches_dict_version_bitwise():
    # the 144 argument sets of the generating-function check
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    tpts = np.concatenate([[0.4 + 0.0j], verify._annulus_points(rng, 11, 0.05, 0.5)])
    cases = list(itertools.product((0.0, 1.2), (1.0, 2.2), (0.0, 0.3, 1.0), tpts))
    assert len(cases) == 144
    for beta, c, x, t in cases:
        args = (c, beta, 2.0 * x * t, -t * t, -2.0 * t * t)
        assert oracles.lauricella_triple(*args) == _lauricella_dict(*args)


@pytest.mark.parametrize("m, beta", [(0, 0.0), (2, 0.5), (4, 2.3), (8, 1.7)])
def test_closed_bracket_real_sum_on_the_diagonal(m, beta, monkeypatch):
    # on the diagonal z wbar is real and the 2F2 grid is summed in real long double: bit for bit
    # the complex sum, which a wrapper that hands hyp_pfq complex long double forces
    radii = np.geomspace(1e-2, 6.0, 48)
    real = oracles.closed_bracket(radii, radii, m, beta)
    assert np.array_equal(real, oracles.closed_bracket(radii + 0j, radii + 0j, m, beta))
    points = radii * np.exp(0.7j)  # z zbar real again, its imaginary part exactly 0
    on_points = oracles.closed_bracket(points, points, m, beta)
    hyp_pfq = oracles.hyp_pfq
    monkeypatch.setattr(oracles, "hyp_pfq", lambda a, b, t, ctl: hyp_pfq(a, b, np.asarray(t, np.clongdouble), ctl))
    assert np.array_equal(real, oracles.closed_bracket(radii, radii, m, beta))
    assert np.array_equal(on_points, oracles.closed_bracket(points, points, m, beta))
