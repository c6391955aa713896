"""Checks on the package source itself."""

import argparse
import ast
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import facering
import facering.cli  # noqa: F401  (the benchmark calls facering.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    path = PERFBENCH / "profiling.py"
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


def test_profiled_functions_are_defined_where_named():
    # an inherited method resolves too, but its code object is the base's:
    # an EnvelopeElement.__init__ taken from a shared base would also count
    # every Polynomial as an envelope element
    path = PERFBENCH / "profiling.py"
    spec = importlib.util.spec_from_file_location("perfbench_profiling", path)
    profiling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profiling)
    for module, qualname in (
        *profiling.CALL_COUNTS.values(),
        *profiling.INCLUSIVE.values(),
    ):
        obj = getattr(facering, module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert (obj.__module__, obj.__qualname__) == (f"facering.{module}", qualname)


def test_combination_arithmetic_is_defined_once():
    # Polynomial and EnvelopeElement take these from scalars.Combination
    shared = {"is_zero", "__bool__", "__eq__", "__add__", "__neg__", "__sub__", "scale"}
    assert shared <= set(facering.scalars.Combination.__dict__)
    for cls in (facering.Polynomial, facering.EnvelopeElement):
        assert issubclass(cls, facering.scalars.Combination)
        assert shared.isdisjoint(cls.__dict__), cls.__name__


def _benchmark_names():
    """Every dotted name the benchmark reads off its facering module,
    which it binds to ``fr``: the longest attribute chain on that name."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "fr":
                names.add(".".join(reversed(parts)))
    return {n for n in names if not any(m.startswith(n + ".") for m in names)}


def test_benchmark_names_exist():
    # a simplification that drops a name the benchmark calls would show up
    # only as failed operations in the benchmark
    names = _benchmark_names()
    assert {"materialize_tau", "chain_map", "bundled.bundled_poset_text"} <= names
    missing = []
    for name in sorted(names):
        obj = facering
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert missing == []


# public names with no caller in src/ or perfbench/ that stay because each
# is one of the paper's objects, with the reason
PAPER_OBJECTS = {
    "rank1_map": "the map from a rank-1 envelope to the bottom envelope",
    "differential_matrix": "a degree slice of the scalar complex as a matrix",
    "embed_base": "the embedding of the face quotient into its envelope",
    "multidegree": "the atom degree of a homogeneous polynomial",
    "face_projection": "the quotient of the face ring onto the face at x",
    "f_U": "the ideal member f_U over a join set",
    "g_pair": "the quadratic ideal member g of two join-set elements",
    "is_chain_monomial": "the basis test of the straightening normal form",
    "meet": "the meet x^y in the relation t_x t_y - t_{x^y} * sum of t_z",
}


def _name_counts(tree, attributes_only=False):
    """How often each name is read or imported in a tree; with
    attributes_only, how often it is read as an attribute (``obj.name``)."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def test_every_public_name_has_a_caller():
    # a public function, class or method of the package is called by name in
    # the package (outside its own definition) or the benchmark, or is a
    # paper object; a method counts only as an attribute read, so a local of
    # the same name does not hide it.  A paper object that gains a caller,
    # or loses its definition, leaves PAPER_OBJECTS
    src = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(facering.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    }
    trees = list(src.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PERFBENCH.glob("*.py"))
    ]
    used = {False: Counter(), True: Counter()}
    for tree in trees:
        for attributes_only, counts in used.items():
            counts += _name_counts(tree, attributes_only)
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    uncalled = []
    for fname, tree in src.items():
        scopes = [(node, "") for node in tree.body]
        for node, prefix in scopes:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                scopes += [(child, node.name + ".") for child in node.body]
            method = bool(prefix)
            if used[method][node.name] == _name_counts(node, method)[node.name]:
                uncalled.append((node.name, f"{fname}:{prefix}{node.name}"))
    assert [where for name, where in uncalled if name not in PAPER_OBJECTS] == []
    assert set(PAPER_OBJECTS) <= {name for name, _ in uncalled}


def test_box_and_its_size_take_the_same_parameters():
    # box_size counts what monomial_box yields at the same arguments
    box = inspect.signature(facering.Envelope.monomial_box).parameters
    size = inspect.signature(facering.Envelope.box_size).parameters
    assert [(p.name, p.default) for p in box.values()] == [
        (p.name, p.default) for p in size.values()
    ]
    assert list(box) == ["self", "laurent_bound", "depth_bound", "w"]


def test_oracle_references_nothing_from_linalg():
    # the simplicial oracle is an independent check of the slice ranks, so
    # its code may not name what complexes imports from linalg
    path = Path(facering.__file__).parent / "complexes.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    from_linalg = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module == "linalg"
        for alias in node.names
    }
    assert from_linalg, "complexes no longer imports from .linalg"
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for name in ("simplicial_oracle", "_oracle_rank"):
        used = {
            node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)
        }
        assert used.isdisjoint(from_linalg | {"linalg"}), name


def _phrases_by_file(phrases):
    """{source file name: the phrases its string constants contain}, for
    the files that contain any; f-string parts are constants too."""
    found = {}
    for path in sorted(Path(facering.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase in phrases:
                    if phrase in node.value:
                        found.setdefault(path.name, set()).add(phrase)
    return found


def test_only_the_name_tables_build_unknown_name_messages():
    # the poset's and the ring's name tables raise on a name they lack, so
    # an "unknown element" or "unknown variable" message built anywhere else
    # is a second owner of that rule
    found = _phrases_by_file(("unknown element", "unknown variable"))
    assert found.pop("poset.py", None), "poset.py no longer names an unknown element"
    assert found.pop("ring.py", None), "ring.py no longer names an unknown variable"
    assert found == {}


def test_envelope_checks_no_name_against_its_position_tables():
    # Envelope._apos and _ipos raise on a name they lack, so an ``in`` or
    # ``not in`` test against them in envelope.py is a second owner of the
    # name rule; ``.get`` stays, for the step that tries both tables
    path = Path(facering.__file__).parent / "envelope.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for op, right in zip(node.ops, node.comparators)
        if isinstance(op, (ast.In, ast.NotIn))
        and isinstance(right, ast.Attribute)
        and right.attr in ("_apos", "_ipos")
    ]
    assert found == []


def test_only_scalars_and_the_bound_type_build_non_negative_messages():
    # scalars.check_non_negative owns "must be non-negative"; the CLI's
    # argparse type _bound keeps its own, as argparse needs its error type
    def phrases(node):
        return {
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and "must be non-negative" in sub.value
        }

    found = {}
    for path in sorted(Path(facering.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = phrases(tree)
        if path.name == "cli.py":
            bound = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_bound"]
            assert bound, "cli.py no longer defines _bound"
            assert phrases(bound[0]), "cli._bound no longer says must be non-negative"
            lines -= phrases(bound[0])
        if lines:
            found[path.name] = sorted(lines)
    assert found.pop("scalars.py", None), "scalars.py no longer says must be non-negative"
    assert found == {}


def test_only_the_poset_builds_cover_messages():
    # SimplicialPoset.removed_atom owns "u covers l and removes one atom";
    # a cover message built anywhere else is a second owner of that rule
    phrases = ("does not cover", "does not remove")
    found = _phrases_by_file(phrases)
    assert found.pop("poset.py", None) == set(phrases)
    assert found == {}


def test_a_field_is_named_by_one_string():
    # "Q" or "F<p>": no prime option in the CLI, no prime parameter
    assert list(inspect.signature(facering.scalars.field_from_name).parameters) == ["name"]
    parser = facering.cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices
    for name, command in sub.choices.items():
        options = {s for a in command._actions for s in a.option_strings}
        assert "--prime" not in options, name


# every cache of the package, with the traffic that hits it: hits over calls
# of the method that reads it, in one set-up plus one round of the
# benchmark workload named, at seed 1.  A cache is an attribute that an
# __init__ sets to {}, None or WeakValueDictionary() and a method fills; a
# new one is listed here with its measurement
CACHES = {
    "PolyRing._relation_terms": "relation_terms: 75/87 on envelope-solve",
    "PolyRing._envelopes": "Envelope.of: 1,678/1,753 on envelope-solve, 1,759/1,935 on dd-sweep",
    "Envelope._kernels": "annihilator_basis: 1,422/4,590 on envelope-solve, 2,943 more "
    "answered empty before it, 225 eliminations",
    "Envelope._table": "_relation_table: 150/225 on envelope-solve",
    "CoverData._dcache": "_expansions: 15,588/16,995 on envelope-solve, 11,886/12,414 on dd-sweep",
    "CleanMap._layout": "__call__: 102,025/102,310 on envelope-solve",
    "SimplicialPoset._join_table": "join_table: 4/12 on envelope-solve, 9/17 on face-slices",
    "SimplicialPoset._is_complex": "is_face_poset_of_complex: 509/512 on face-slices",
}


def _starts_empty(value):
    """Whether an assigned value is {}, None or WeakValueDictionary()."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.Constant):
        return value.value is None
    if isinstance(value, ast.Call) and not value.args:
        func = value.func
        return getattr(func, "attr", getattr(func, "id", None)) == "WeakValueDictionary"
    return False


def test_every_cache_is_listed():
    # a cache stays only with traffic that hits it; one the workloads do
    # not hit is measured and deleted, not kept on a guess
    found = set()
    for path in sorted(Path(facering.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                for node in ast.walk(init):
                    if isinstance(node, ast.Assign) and _starts_empty(node.value):
                        found |= {
                            f"{cls.name}.{t.attr}"
                            for t in node.targets
                            if isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        }
    assert found == set(CACHES)
