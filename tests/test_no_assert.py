"""Invariants in the package raise: `python -O` strips every `assert`
statement, so none may appear under src/polymkl."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polymkl"


def test_no_assert_statement_in_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements under src/polymkl: {found}"
