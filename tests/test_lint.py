"""Source rules for the package: no runtime gate may vanish under ``python -O``
and no handler may swallow every error."""

import ast
from pathlib import Path

import pytest

import slaterkit

SOURCES = sorted(Path(slaterkit.__file__).parent.glob("*.py"))
_CATCH_ALL = {"Exception", "BaseException"}


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
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_catch_all_except(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_rules_flag_their_targets():
    code = ("assert x\n"
            "try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept Exception:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert len(_violations(ast.parse(code))) == 4
    assert len(SOURCES) > 5
