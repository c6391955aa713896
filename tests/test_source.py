"""Checks on the package source itself."""

import ast
from pathlib import Path

import facering


def test_no_assert_statements():
    # python -O strips asserts, so invariants must be explicit errors
    found = []
    for path in sorted(Path(facering.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
