"""Checks on the package source itself."""

import ast
import importlib.util
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


def test_profiled_functions_exist():
    # the benchmark's traced run reads call counts and inclusive times off
    # these (module, qualified name) pairs; a rename would silently read 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "profiling.py"
    spec = importlib.util.spec_from_file_location("perfbench_profiling", path)
    profiling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profiling)
    for module, qualname in (
        *profiling.CALL_COUNTS.values(),
        *profiling.INCLUSIVE.values(),
    ):
        obj = getattr(facering, module, None)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"facering.{module}.{qualname} is missing"
