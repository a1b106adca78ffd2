"""Source rules for the package: no runtime gate may vanish under ``python -O``,
no handler may swallow every error, every import sits at module level, and no
code walks the N! orderings of a tuple (``itertools.permutations``): every sector
map takes its signs from the one-particle split, built from sorted tuples, and the
contraction minors theirs from ``linalg.levi_civita``.  No code takes a general
spectrum (``np.linalg.eig`` / ``eigvals``): every spectrum the package reports
comes from ``eigh``, ``eigvalsh`` or ``svd``.  No function calls itself by name:
every search is a bounded loop.  ``mixed`` neither imports nor calls the
stacked L-BFGS ``_lbfgs``: its measures are closed forms, and the searches
live in ``witnesses``."""

import ast
from pathlib import Path

import pytest

import slaterkit

SOURCES = sorted(Path(slaterkit.__file__).parent.glob("*.py"))
_CATCH_ALL = {"Exception", "BaseException"}
#: imports allowed inside a function, as (function, imported module): ``mixed``
#: imports ``witnesses`` at call time because ``witnesses`` imports ``mixed``
_LOCAL_IMPORTS = {("bosonic_ppt_separability", "witnesses")}


def _local_imports(tree: ast.AST) -> list[str]:
    owner = {}  # each import inside a function, and the innermost function around it
    for func in ast.walk(tree):  # breadth first, so inner functions come later
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    owner[node] = func.name
    return [f"line {node.lineno}: import inside {name}" for node, name in owner.items()
            if not {(name, alias.name) for alias in node.names} <= _LOCAL_IMPORTS]


def _is_permutation_walk(node: ast.AST) -> bool:
    """``itertools.permutations``, or ``from itertools import permutations``."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "permutations" and isinstance(node.value, ast.Name)
                and node.value.id == "itertools")
    return (isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "permutations" for alias in node.names))


_GENERAL_SPECTRA = {"eig", "eigvals"}


def _is_general_spectrum(node: ast.AST) -> bool:
    """``np.linalg.eig`` / ``eigvals`` (any ``*.linalg``), or their import from ``numpy.linalg``."""
    if isinstance(node, ast.Attribute):
        owner = node.value
        return node.attr in _GENERAL_SPECTRA and (
            isinstance(owner, ast.Attribute) and owner.attr == "linalg"
            or isinstance(owner, ast.Name) and owner.id == "linalg")
    return (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            and any(alias.name in _GENERAL_SPECTRA for alias in node.names))


def _calls_itself(func: ast.AST) -> bool:
    """A function whose body (nested functions included) calls its own name."""
    return isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == func.name for node in ast.walk(func))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in _CATCH_ALL
                                        for c in caught):
                found.append(f"line {node.lineno}: catch-all except")
        elif _is_permutation_walk(node):
            found.append(f"line {node.lineno}: permutation walk")
        elif _is_general_spectrum(node):
            found.append(f"line {node.lineno}: general (non-Hermitian) spectrum")
        elif _calls_itself(node):
            found.append(f"line {node.lineno}: {node.name} calls itself")
    return found


def _search_uses(tree: ast.AST) -> list[str]:
    """Imports of ``_lbfgs`` and calls to it, by name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "_lbfgs" for a in node.names):
            found.append(f"line {node.lineno}: imports _lbfgs")
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "_lbfgs"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "_lbfgs"):
            found.append(f"line {node.lineno}: calls _lbfgs")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_catch_all_except(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert _local_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_mixed_runs_no_search():
    path = Path(slaterkit.__file__).parent / "mixed.py"
    assert _search_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_rules_flag_their_targets():
    code = ("assert x\n"
            "try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept Exception:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert len(_violations(ast.parse(code))) == 4
    code = ("import itertools\n"
            "itertools.permutations(range(3))\n"
            "from itertools import combinations, permutations\n"
            "itertools.combinations(range(3), 2)\n")
    assert len(_violations(ast.parse(code))) == 2
    code = ("import numpy as np\n"
            "np.linalg.eigvals(m)\n"
            "np.linalg.eig(m)\n"
            "numpy.linalg.eigvals(m)\n"
            "from numpy import linalg\nlinalg.eig(m)\n"
            "from numpy.linalg import eigvalsh, eigvals\n"
            "from numpy.linalg import eig as general\n"
            "np.linalg.eigh(m), np.linalg.eigvalsh(m), np.linalg.svd(m), obj.eig(m)\n"
            "from numpy.linalg import eigh, svd\n")
    assert len(_violations(ast.parse(code))) == 6
    code = ("def f(n):\n    return f(n - 1)\n"
            "async def g():\n    await g()\n"
            "def h():\n    def inner():\n        return h()\n"
            "def m():\n    return f(1)\n"
            "def k(obj):\n    return obj.k(), [k for k in ()]\n")
    assert len(_violations(ast.parse(code))) == 3
    code = ("import numpy\n"
            "def f():\n    from . import sectors\n"
            "def g():\n    def h():\n        import json\n"
            "def bosonic_ppt_separability():\n    from . import witnesses\n"
            "def bosonic_ppt_separability():\n    from . import sectors, witnesses\n")
    assert len(_local_imports(ast.parse(code))) == 3
    code = ("from .linalg import _lbfgs as search, as_rng\n"
            "from .linalg import as_rng\n"
            "_lbfgs(f, x, 3)\n"
            "linalg._lbfgs(f, x, 3)\n"
            "lbfgs(f, x, 3), obj._lbfgs_memory(), _lbfgs\n")
    assert len(_search_uses(ast.parse(code))) == 3
    assert len(SOURCES) > 5
