import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from facering import (
    PolyRing,
    PosetError,
    SimplicialPoset,
    bundled_poset,
    validate_simplicial,
)
from facering.scalars import QQ, PrimeField

from helpers import (
    ALL_BUNDLED,
    MUTATIONS,
    RP2_FACETS,
    TORUS7_FACETS,
    face_poset,
    glued_pair,
    mutated,
    no_meet_poset,
    reference_generators,
    reference_is_complex,
    reference_join_table,
    reference_rank2_intervals,
    reference_validate_simplicial,
)


def _poset(name):
    """A bundled poset by name, or one of the test posets built here."""
    built = {
        "rp2": lambda: face_poset(RP2_FACETS),
        "torus7": lambda: face_poset(TORUS7_FACETS),
        "glued_pair": lambda: glued_pair("1234"),
        "no_meet": no_meet_poset,
        "point": lambda: SimplicialPoset(["pt"], []),
    }
    return built[name]() if name in built else bundled_poset(name)


def test_parse_p1(p1):
    assert len(p1) == 5
    assert p1.bottom == "0"
    assert p1.atoms == ("y1", "y2")
    assert p1.rank_of("x") == 2 and p1.rank_of("z") == 2
    assert p1.rank_of("y1") == 1 and p1.rank_of("0") == 0
    assert p1.proper_elements == ("y1", "y2", "x", "z")


def test_parse_single_element():
    p = SimplicialPoset.from_json_text('{"elements": ["pt"], "covers": []}')
    assert p.bottom == "pt"
    assert p.atoms == ()
    assert validate_simplicial(p).ok


def test_parse_cycle_error():
    with pytest.raises(PosetError, match="cycle"):
        SimplicialPoset(["0", "y1", "x"], [["y1", "0"], ["x", "y1"], ["y1", "x"]])


def test_parse_self_cover_error():
    with pytest.raises(PosetError, match="cycle"):
        SimplicialPoset(["0", "a"], [["a", "a"]])


def test_parse_missing_bottom():
    with pytest.raises(PosetError, match="bottom"):
        SimplicialPoset(["a", "b"], [])


def test_parse_malformed():
    with pytest.raises(PosetError, match="malformed"):
        SimplicialPoset.from_json_text("{not json")
    with pytest.raises(PosetError, match="malformed"):
        SimplicialPoset.from_json_text('{"elements": ["a"]}')
    with pytest.raises(PosetError, match="must be lists"):
        SimplicialPoset.from_json_obj({"elements": "0a", "covers": []})
    with pytest.raises(PosetError, match="no elements"):
        SimplicialPoset([], [])
    with pytest.raises(PosetError, match="unknown element"):
        SimplicialPoset(["0", "a"], [["a", "0"], ["b", "0"]])
    with pytest.raises(PosetError, match="duplicate"):
        SimplicialPoset(["0", "a", "a"], [["a", "0"]])


@pytest.mark.parametrize(
    "entry", ["a0", "a", ["a"], ["a", "0", "0"], {"a": 1, "0": 2}, 7, None]
)
def test_cover_entry_must_be_a_pair(entry):
    # a string or dict of two items would otherwise unpack as a cover
    with pytest.raises(PosetError, match="malformed cover entry"):
        SimplicialPoset(["0", "a"], [entry])


def test_validate_p1_ok(p1):
    report = validate_simplicial(p1)
    assert report.ok and report.violations == []
    assert report.to_json()["ok"] is True


def test_validate_chain_not_boolean():
    # rank-2 element with a single atom below it
    p = SimplicialPoset(["0", "a", "b"], [["a", "0"], ["b", "a"]])
    report = validate_simplicial(p)
    assert not report.ok
    assert ("boolean lower interval", ("b",)) in report.violations


def test_validate_redundant_edge_breaks_grading():
    p = SimplicialPoset(
        ["0", "y1", "y2", "x"],
        [["y1", "0"], ["y2", "0"], ["x", "y1"], ["x", "y2"], ["x", "0"]],
    )
    report = validate_simplicial(p)
    assert not report.ok
    assert any(axiom == "graded covers" for axiom, _ in report.violations)


def test_validate_all_bundled():
    for name in ALL_BUNDLED:
        assert validate_simplicial(bundled_poset(name)).ok, name


def test_hollow_triangle_intervals_brute_force():
    p = bundled_poset("hollow_triangle")
    # independent check: every lower interval has 2**rank elements and its
    # atom-set map is a bijection onto the power set
    for x in p.elements:
        interval = [y for y in p.elements if p.leq(y, x)]
        r = p.rank_of(x)
        assert len(interval) == 2 ** r
        keys = {frozenset(p.atoms_below(y)) for y in interval}
        assert len(keys) == 2 ** r


def test_join_set_examples(p1):
    assert p1.join_set(("y1", "y2")) == ("x", "z")
    assert p1.join_set(("x", "z")) == ()
    assert p1.join_set(("x",)) == ("x",)
    with pytest.raises(ValueError):
        p1.join_set(())


def test_join_set_properties():
    for name in ALL_BUNDLED:
        p = bundled_poset(name)
        for a, b in combinations(p.elements, 2):
            js = p.join_set((a, b))
            for u in js:
                assert p.leq(a, u) and p.leq(b, u)
            for u, v in combinations(js, 2):
                assert not p.leq(u, v) and not p.leq(v, u)


def test_meet_examples(p1):
    assert p1.meet("y1", "y2") == "0"
    assert p1.meet("x", "z") is None
    assert p1.meet("x", "x") == "x"


def test_meet_is_largest_lower_bound():
    for name in ALL_BUNDLED:
        p = bundled_poset(name)
        for a, b in combinations(p.elements, 2):
            if not p.join_set((a, b)):
                continue
            m = p.meet(a, b)
            lbs = [y for y in p.elements if p.leq(y, a) and p.leq(y, b)]
            assert m in lbs
            assert all(p.leq(y, m) for y in lbs)


def test_incidence_signs_p1(p1):
    # removed-atom position rule: x over y1 removes y2 (position 1)
    assert p1.incidence_sign("x", "y1") == -1
    assert p1.incidence_sign("x", "y2") == 1
    assert p1.incidence_sign("z", "y1") == -1
    assert p1.incidence_sign("y1", "0") == 1
    assert p1.incidence_sign("y2", "0") == 1


def test_incidence_not_a_cover(p1):
    with pytest.raises(ValueError, match="cover"):
        p1.incidence_sign("x", "0")


def test_removed_atom(p1):
    assert p1.removed_atom("x", "y1") == "y2"
    assert p1.removed_atom("z", "y2") == "y1"


def test_incidence_diamond_cancellation():
    for name in ALL_BUNDLED:
        p = bundled_poset(name)
        for w, x, mids in p.rank2_intervals():
            assert len(mids) == 2
            z1, z2 = mids
            total = (
                p.incidence_sign(x, z1) * p.incidence_sign(z1, w)
                + p.incidence_sign(x, z2) * p.incidence_sign(z2, w)
            )
            assert total == 0, (name, w, x)


def test_boolean_counts():
    for name in ALL_BUNDLED:
        p = bundled_poset(name)
        for x in p.elements:
            below = [y for y in p.elements if p.leq(y, x)]
            assert len(below) == 2 ** p.rank_of(x)
            assert len(p.atoms_below(x)) == p.rank_of(x)


def test_parallel_elements_not_merged(p1):
    # x and z sit over the same atoms but stay distinct
    assert set(p1.atoms_below("x")) == set(p1.atoms_below("z"))
    assert "x" != "z" and p1.rank_of("x") == p1.rank_of("z")
    assert not p1.leq("x", "z") and not p1.leq("z", "x")


def test_saturated_chains(p1):
    chains = p1.saturated_chains("x", "0")
    assert sorted(chains) == [("x", "y1", "0"), ("x", "y2", "0")]
    assert p1.saturated_chains("x", "x") == [("x",)]
    assert p1.saturated_chains("y1", "z") == []


def test_face_poset_recognition():
    assert bundled_poset("hollow_triangle").is_face_poset_of_complex()
    assert bundled_poset("tetrahedron_boundary").is_face_poset_of_complex()
    assert not bundled_poset("p1").is_face_poset_of_complex()
    assert not bundled_poset("double_triangle").is_face_poset_of_complex()


@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2",))
def test_meet_matches_join_set_definition(name):
    # the meet exists exactly when the join set is nonempty, and is then
    # the common lower bound of top rank
    p = face_poset(RP2_FACETS) if name == "rp2" else bundled_poset(name)
    for a in p.elements:
        for b in p.elements:
            lower = [z for z in p.elements if p.leq(z, a) and p.leq(z, b)]
            expected = max(lower, key=p.rank_of) if p.join_set((a, b)) else None
            assert p.meet(a, b) == expected, (name, a, b)


@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2", "glued_pair"))
def test_join_table_is_join_set_and_meet(name):
    # one entry per incomparable pair of proper elements, in pair order,
    # holding the meet position (None at the bottom or without joins) and
    # the join positions
    p = _poset(name)
    proper = p.proper_elements
    pos = {x: k for k, x in enumerate(proper)}
    want = {}
    for (k1, x), (k2, y) in combinations(enumerate(proper), 2):
        if p.leq(x, y) or p.leq(y, x):
            continue
        joins = tuple(pos[z] for z in p.join_set((x, y)))
        meet = p.meet(x, y) if joins else p.bottom
        want[(k1, k2)] = (None if meet == p.bottom else pos[meet], joins)
    table = p.join_table()
    assert list(table.items()) == list(want.items())
    assert p.join_table() is table


@pytest.mark.parametrize(
    "name", ALL_BUNDLED + ("rp2", "torus7", "glued_pair", "no_meet", "point")
)
def test_face_poset_test_matches_its_definition(name):
    p = _poset(name)
    assert p.is_face_poset_of_complex() == reference_is_complex(p)


def test_face_poset_test_returns_where_a_meet_raises():
    # the join table needs meet(c, d), which does not exist; the test
    # still answers, and False, since a and b have two joins
    p = no_meet_poset()
    with pytest.raises(PosetError, match="no largest common lower bound"):
        p.meet("c", "d")
    with pytest.raises(PosetError, match="no largest common lower bound"):
        p.join_table()
    assert p.is_face_poset_of_complex() is False
    assert p.join_set(("a", "b")) == ("c", "d")


def test_join_set_minimality():
    # the minimal common upper bounds only, not every common upper bound
    p = glued_pair("123")
    assert p.join_set(("1", "2")) == ("12",)
    assert p.join_set(("1", "23")) == ("A", "B")
    assert p.join_set(("12", "13")) == ("A", "B")
    assert p.join_set(("A", "B")) == ()
    assert p.join_set(("1", "12", "13")) == ("A", "B")


def _agrees_with_references(p, fields=()):
    """Validation, rank-2 intervals, the join table (or its PosetError) and
    the relations over each field equal their all-pairs references."""
    assert validate_simplicial(p).to_json() == reference_validate_simplicial(p).to_json()
    assert p.rank2_intervals() == reference_rank2_intervals(p)
    try:
        want = reference_join_table(p)
    except PosetError:
        with pytest.raises(PosetError, match="no largest common lower bound"):
            p.join_table()
        return
    assert list(p.join_table().items()) == list(want.items())
    for field in fields:
        ring = PolyRing(p, field)
        assert [g.terms for g in ring.generators()] == reference_generators(ring)


REFERENCE_POSETS = ALL_BUNDLED + ("rp2", "torus7", "glued_pair", "no_meet")


@pytest.mark.parametrize("name", REFERENCE_POSETS)
def test_poset_tables_match_references(name):
    _agrees_with_references(_poset(name), (QQ,))


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", REFERENCE_POSETS)
def test_mutated_poset_tables_match_references(name, kind):
    # seeded single-cover edits, most of them invalid; the ones that are not
    # posets (a dropped atom cover leaves two minimal elements) are skipped
    base = _poset(name)
    built = 0
    for seed in range(4):
        try:
            p = SimplicialPoset(*mutated(base, kind, random.Random(f"{name}/{kind}/{seed}")))
        except PosetError:
            continue
        built += 1
        _agrees_with_references(p)
    assert built


def test_redundant_edge_keeps_the_interval_verdict():
    # 12356 > 235 adds no order relation: only the grading fails.  A test
    # that read the input edges as the Hasse diagram would call [0, 12356]
    # not boolean here.
    base = face_poset(["".join(f) for f in combinations("123456", 5)])
    p = SimplicialPoset(base.elements, list(base.covers) + [("12356", "235")])
    report = validate_simplicial(p)
    assert report.violations == [("graded covers", ("12356", "235"))]
    assert report.to_json() == reference_validate_simplicial(p).to_json()
    assert p.rank2_intervals() == base.rank2_intervals()


def test_rank2_interval_without_middles_is_listed():
    # x > b skips a rank, so b lies two ranks below x with no middle
    p = SimplicialPoset(
        ["0", "a", "b", "d", "x"],
        [["a", "0"], ["b", "0"], ["d", "a"], ["x", "d"], ["x", "b"]],
    )
    assert ("b", "x", ()) in p.rank2_intervals()
    assert p.rank2_intervals() == reference_rank2_intervals(p)
    report = validate_simplicial(p)
    assert ("two middles in rank-2 intervals", ("b", "x")) in report.violations
    assert report.to_json() == reference_validate_simplicial(p).to_json()


@settings(max_examples=60, deadline=None)
@given(
    facets=st.lists(
        st.sets(st.sampled_from("123456"), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    ),
    kind=st.sampled_from((None,) + MUTATIONS),
    seed=st.integers(0, 2**16),
)
def test_random_face_posets_match_references(facets, kind, seed):
    p = face_poset(["".join(sorted(f)) for f in facets])
    if kind is not None:
        try:
            p = SimplicialPoset(*mutated(p, kind, random.Random(seed)))
        except PosetError:
            return
    _agrees_with_references(p, (QQ, PrimeField(2)))
