import random
from itertools import combinations, product
from math import comb

import pytest

from facering import (
    Envelope,
    EnvelopeComplex,
    PolyRing,
    SimplicialPoset,
    build_gamma,
    build_scalar_complex,
    bundled_poset,
    cohomology_dims_at,
    complex_report,
    differential_matrix,
    simplicial_oracle,
    verify_dd_zero,
)
from facering import complexes
from facering.complexes import _oracle_rank, dd_sweep_size
from facering.scalars import PRIME_BOUND, QQ, PrimeField, _is_prime

from helpers import (
    ALL_BUNDLED,
    COMPLEX_BUNDLED,
    RP2_FACETS,
    TORUS7_FACETS,
    face_poset,
    make_ring,
    reference_dd_sweep,
    reference_oracle_rank,
)

ORACLE_FIELDS = (
    QQ,
    PrimeField(2),
    PrimeField(3),
    PrimeField(5),
    PrimeField(next(q for q in range(PRIME_BOUND - 2, 0, -2) if _is_prime(q))),
)


def test_gamma_terms_p1(ring_p1):
    gc = build_gamma(ring_p1)
    assert gc.terms == {0: ("0",), 1: ("y1", "y2"), 2: ("x", "z")}
    assert set(gc.maps) == set(ring_p1.poset.covers)


def test_gamma_terms_point():
    point = SimplicialPoset(["pt"], [])
    ring = PolyRing(point, QQ)
    gc = build_gamma(ring)
    assert gc.terms == {0: ("pt",)}
    assert gc.maps == {}


def test_gamma_terms_tetrahedron():
    ring = make_ring("tetrahedron_boundary")
    gc = build_gamma(ring)
    assert sum(len(v) for v in gc.terms.values()) == 15
    assert [len(gc.terms[i]) for i in range(4)] == [1, 4, 6, 4]


def test_dd_zero_p1(ring_p1):
    rep = verify_dd_zero(build_gamma(ring_p1), laurent_bound=3, depth_bound=3)
    assert rep.passed
    # two rank-2 elements, a 7x7 Laurent box, and three inverse vectors of
    # depth at most 3 over two weight-2 variables
    assert rep.checked == 2 * 7 * 7 * 3
    assert all(rep.details["rank2_intervals"].values())


def test_dd_zero_solid_triangle():
    ring = make_ring("solid_triangle")
    rep = verify_dd_zero(build_gamma(ring), laurent_bound=2, depth_bound=2)
    assert rep.passed


def test_dd_zero_negative_control(ring_p1):
    gc = build_gamma(ring_p1)
    sign, m = gc.maps[("x", "y1")]
    gc.maps[("x", "y1")] = (-sign, m)
    rep = verify_dd_zero(gc, laurent_bound=1, depth_bound=1)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.witness["source"] == "x" and rep.witness["target"] == "0"
    assert not all(rep.details["rank2_intervals"].values())


def _flipped(gc, cover):
    maps = dict(gc.maps)
    if cover is not None:
        sign, m = maps[cover]
        maps[cover] = (-sign, m)
    return EnvelopeComplex(gc.ring, gc.terms, maps)


def _false_diamonds(rep):
    return {k for k, ok in rep.details["rank2_intervals"].items() if not ok}


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_dd_zero_matches_full_box_reference(name):
    ring = make_ring(name)
    gc = build_gamma(ring)
    memo = {}
    for lb, db in ((1, 0), (1, 1), (2, 1)):
        for cover in (None, *sorted(gc.maps)):
            flipped = _flipped(gc, cover)
            rep = verify_dd_zero(flipped, laurent_bound=lb, depth_bound=db)
            passed, checked, witness, failing = reference_dd_sweep(flipped, lb, db, memo)
            assert (rep.passed, rep.checked, rep.witness) == (passed, checked, witness)
            assert _false_diamonds(rep) == {f"[{w} < {x}]" for w, x in failing}


def _double_flips(gc, cap):
    """cap pairs of covers drawn with a fixed seed: half of them the two
    covers of one route through a rank-2 interval (their flips cancel in
    that interval but not in its neighbours), the rest any other pairs."""
    rng = random.Random(7)
    routes = sorted(
        tuple(sorted(((x, mids[0]), (mids[0], w))))
        for w, x, mids in gc.ring.poset.rank2_intervals()
    )
    rest = sorted(set(combinations(sorted(gc.maps), 2)) - set(routes))
    k = min(cap // 2, len(routes))
    return rng.sample(routes, k) + rng.sample(rest, min(cap - k, len(rest)))


def _flipped_twice(gc, pair):
    return _flipped(_flipped(gc, pair[0]), pair[1])


@pytest.mark.parametrize("name", ("p1", "double_triangle", "tetrahedron_boundary"))
def test_dd_zero_matches_full_box_reference_under_double_flips(name):
    ring = make_ring(name)
    gc = build_gamma(ring)
    memo = {}
    for pair in _double_flips(gc, 6):
        flipped = _flipped_twice(gc, pair)
        rep = verify_dd_zero(flipped, laurent_bound=2, depth_bound=2)
        passed, checked, witness, failing = reference_dd_sweep(flipped, 2, 2, memo)
        assert (rep.passed, rep.checked, rep.witness) == (passed, checked, witness)
        assert _false_diamonds(rep) == {f"[{w} < {x}]" for w, x in failing}, pair


def test_dd_witness_raises_when_the_lift_cancels(monkeypatch):
    # a stand-in leftover that fails on the active box but cancels wherever
    # a Laurent exponent sits at -1, as every lift at laurent_bound 1 does
    # on the rank-3 elements (each interval there has a passive atom)
    gc = build_gamma(make_ring("tetrahedron_boundary"))
    monkeypatch.setattr(
        complexes, "_leftover", lambda routes, lau, inv: {} if -1 in lau else {0: 1}
    )
    with pytest.raises(RuntimeError, match="cancels"):
        verify_dd_zero(gc, laurent_bound=1, depth_bound=0)


def test_dd_witness_is_the_least_lift_at_the_least_target(monkeypatch):
    # stand-in routes: only those labelled "fails" leave something behind
    ring = make_ring("tetrahedron_boundary")
    env, tgt = Envelope.of(ring, "123"), Envelope.of(ring, "1")
    monkeypatch.setattr(
        complexes,
        "_leftover",
        lambda routes, lau, inv: {tgt.unit_mon: 1} if routes == "fails" else {},
    )
    flat, deep = (0,) * env.ninv, (1,) + (0,) * (env.ninv - 1)
    bad = [
        ("3", "fails", ((1, 1, 1), flat)),
        ("2", "cancels", ((-1, -1, -1), deep)),
        ("1", "fails", ((1, 1, 0), deep)),
    ]
    wit = complexes._witness(env, bad)
    # inverse part first, then Laurent part; targets by name
    assert wit["monomial"] == env.element_to_json(env.element({((1, 1, 1), flat): ring.field.one}))
    assert wit["target"] == "1"


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_flipped_cover_fails_exactly_its_diamonds(name):
    ring = make_ring(name)
    gc = build_gamma(ring)
    intervals = ring.poset.rank2_intervals()
    for u, l in gc.maps:
        rep = verify_dd_zero(_flipped(gc, (u, l)), laurent_bound=1, depth_bound=1)
        want = {
            f"[{w} < {x}]"
            for w, x, mids in intervals
            if (x == u and l in mids) or (w == l and u in mids)
        }
        assert _false_diamonds(rep) == want
        assert rep.passed == (not want)


@pytest.mark.parametrize("name", ("solid_triangle", "tetrahedron_boundary", "double_triangle"))
def test_dd_zero_over_prime_fields_matches_full_box_reference(name):
    # each leftover is decided modulo the characteristic: over F2 a flipped
    # sign is no flip, so every report is the unflipped one
    for field in (PrimeField(2), PrimeField(3)):
        gc = build_gamma(make_ring(name, field))
        plain = verify_dd_zero(gc, laurent_bound=1, depth_bound=1).to_json()
        memo = {}
        for cover in sorted(gc.maps):
            flipped = _flipped(gc, cover)
            rep = verify_dd_zero(flipped, laurent_bound=1, depth_bound=1)
            passed, checked, witness, failing = reference_dd_sweep(flipped, 1, 1, memo)
            assert (rep.passed, rep.checked, rep.witness) == (passed, checked, witness)
            assert _false_diamonds(rep) == {f"[{w} < {x}]" for w, x in failing}
            assert (rep.to_json() == plain) == (field.char == 2), (field, cover)


@pytest.mark.parametrize("name", ("solid_triangle", "tetrahedron_boundary"))
def test_flipped_sign_leaves_twice_the_route_over_q_and_f3(name):
    # the two routes of the failing interval add up instead of cancelling:
    # every leftover coefficient is 2, over Q and over F3
    for field in (QQ, PrimeField(3)):
        gc = build_gamma(make_ring(name, field))
        rep = verify_dd_zero(_flipped(gc, sorted(gc.maps)[0]), laurent_bound=1, depth_bound=1)
        terms = rep.witness["leftover"]["terms"]
        assert not rep.passed and terms, field
        assert {t["coeff"] for t in terms} == {"2"}, field


def test_dd_bounds_reject_bool(ring_p1):
    # a bool is an int subclass; it would be certified as the bound true
    gc = build_gamma(ring_p1)
    for bounds in ((True, 1), (1, True)):
        with pytest.raises(ValueError, match=r"must be integers, got \(True,\)"):
            verify_dd_zero(gc, *bounds)


def _diamond_leftover(gc, w, x, elem):
    """Signed sum of the two routes of [w < x] through the public maps."""
    ring = gc.ring
    total = Envelope.of(ring, w).zero()
    for z in ring.poset.lower_covers(x):
        if (z, w) in gc.maps:
            s1, m1 = gc.maps[(x, z)]
            s2, m2 = gc.maps[(z, w)]
            total = total + m2(m1(elem)).scale(ring.field.from_int(s1 * s2))
    return total


def _passive_shift(poset, w, x):
    """Far-out-of-box values on passive coordinates of [w < x]: Laurent 40
    on each atom of w, inverse 9 on the first element not below x."""
    far = next(y for y in poset.proper_elements if not poset.leq(y, x))
    return {a: 40 for a in poset.atoms_below(w)}, {far: 9}


def _active_monomials(poset, w, x):
    r1, r2 = (a for a in poset.atoms_below(x) if not poset.leq(a, w))
    for e1, e2, c in product((-2, -1, 0), (-2, -1, 0), (0, 1)):
        yield {r1: e1, r2: e2}, ({x: c} if c else {})


@pytest.mark.parametrize("name", ("tetrahedron_boundary", "double_triangle"))
def test_diamonds_cancel_at_every_passive_value(name):
    ring = make_ring(name)
    poset = ring.poset
    gc = build_gamma(ring)
    for w, x, _ in poset.rank2_intervals():
        env = Envelope.of(ring, x)
        lau_far, inv_far = _passive_shift(poset, w, x)
        for lau, inv in _active_monomials(poset, w, x):
            elem = env.monomial({**lau, **lau_far}, {**inv, **inv_far})
            assert _diamond_leftover(gc, w, x, elem).is_zero(), (w, x, lau, inv)


def _translate(env, elem, laurent, inverse):
    dl, di = env.monomial_key(laurent, inverse)
    return env.element(
        {
            (
                tuple(a + b for a, b in zip(lau, dl)),
                tuple(a + b for a, b in zip(inv, di)),
            ): c
            for (lau, inv), c in elem.terms.items()
        }
    )


@pytest.mark.parametrize("name", ("tetrahedron_boundary", "double_triangle"))
def test_leftover_translates_with_passive_coordinates(name):
    ring = make_ring(name)
    poset = ring.poset
    gc = build_gamma(ring)
    for w, x, mids in poset.rank2_intervals():
        flipped = _flipped(gc, (x, mids[0]))
        env, tgt = Envelope.of(ring, x), Envelope.of(ring, w)
        lau_far, inv_far = _passive_shift(poset, w, x)
        for lau, inv in _active_monomials(poset, w, x):
            near = _diamond_leftover(flipped, w, x, env.monomial(lau, inv))
            far = _diamond_leftover(
                flipped, w, x, env.monomial({**lau, **lau_far}, {**inv, **inv_far})
            )
            assert far == _translate(tgt, near, lau_far, inv_far), (w, x, lau, inv)
            if lau == dict.fromkeys(lau, 0):
                assert near, (w, x)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_dd_leftover_at_an_inverse_part_reweights_the_depth_zero_leftover(name):
    # the lemma of verify_dd_zero, with and without a flipped route: at an
    # active inverse part c, the leftover is the one at c = 0 with c added
    # to each term's inverse part and each coefficient times the product of
    # C(c_j + d_j, d_j), d_j the term's exponent at c = 0 at j's position
    ring = make_ring(name)
    poset = ring.poset
    gc = build_gamma(ring)
    for w, x, zs in poset.rank2_intervals():
        env, tgt = Envelope.of(ring, x), Envelope.of(ring, w)
        to_tgt = [tgt.inv_vars.index(y) for y in env.inv_vars]
        for cover in (None, (x, zs[0])):
            routes = complexes._routes(_flipped(gc, cover), w, x, zs)
            flat = {}
            for lau, inv in env.monomial_box(2, 2, w):
                if not any(inv):
                    flat[lau] = complexes._leftover(routes, lau, inv)
                    continue
                want = {}
                for (tl, ti), k in flat[lau].items():
                    shifted = list(ti)
                    for j, c in enumerate(inv):
                        d = ti[to_tgt[j]]
                        shifted[to_tgt[j]] += c
                        k *= comb(c + d, d)
                    want[(tl, tuple(shifted))] = k
                got = complexes._leftover(routes, lau, inv)
                assert len(got) == len(flat[lau]), (w, x, cover, lau, inv)
                assert got == want, (w, x, cover, lau, inv)
            assert any(flat.values()) == (cover is not None), (w, x, cover)


@pytest.mark.parametrize("name", ("tetrahedron_boundary", "double_triangle"))
def test_dd_zero_matches_full_box_reference_at_depth_three(name):
    gc = build_gamma(make_ring(name))
    memo = {}
    for cover in (None, *sorted(gc.maps)):
        flipped = _flipped(gc, cover)
        rep = verify_dd_zero(flipped, laurent_bound=1, depth_bound=3)
        passed, checked, witness, failing = reference_dd_sweep(flipped, 1, 3, memo)
        assert (rep.passed, rep.checked, rep.witness) == (passed, checked, witness)
        assert _false_diamonds(rep) == {f"[{w} < {x}]" for w, x in failing}


def test_dd_sweep_size_counts_active_boxes(monkeypatch):
    # the sweep expands the depth-zero active box of each rank-2 interval:
    # its two removed atoms, each in [-lb, 0]; the depth bound adds nothing
    expanded = []
    leftover = complexes._leftover
    monkeypatch.setattr(
        complexes,
        "_leftover",
        lambda routes, lau, inv: expanded.append(inv) or leftover(routes, lau, inv),
    )
    for name in ALL_BUNDLED:
        ring = make_ring(name)
        poset = ring.poset
        gc = build_gamma(ring)
        intervals = poset.rank2_intervals()
        for w, x, _ in intervals:
            removed = [a for a in poset.atoms_below(x) if not poset.leq(a, w)]
            assert len(removed) == 2, (name, w, x)
        for lb, db in ((1, 0), (2, 2), (3, 4)):
            want = (lb + 1) ** 2 * len(intervals)
            expanded.clear()
            assert verify_dd_zero(gc, laurent_bound=lb, depth_bound=db).passed
            assert len(expanded) == want, (name, lb, db)
            assert not any(any(inv) for inv in expanded), (name, lb, db)
            assert dd_sweep_size(ring, lb) == want, (name, lb, db)


def test_gamma_matches_scalar_signs():
    # reading the unit coefficient through each signed map reproduces the
    # degree-zero scalar matrix, rank by rank
    for name in ("p1", "tetrahedron_boundary", "double_triangle"):
        ring = make_ring(name)
        poset = ring.poset
        gc = build_gamma(ring)
        sc = build_scalar_complex(poset, ring.field)
        zero = (0,) * ring.natoms
        for i in range(1, poset.max_rank + 1):
            mat, rows, cols = differential_matrix(sc, zero, i)
            for j, x in enumerate(cols):
                env = Envelope.of(ring, x)
                for r, z in enumerate(rows):
                    tgt = Envelope.of(ring, z)
                    if (x, z) in gc.maps:
                        sign, m = gc.maps[(x, z)]
                        c = m(env.unit()).terms.get(tgt.unit_mon, ring.field.zero)
                        assert c * ring.field.from_int(sign) == mat[r][j]
                    else:
                        assert not mat[r][j]


def test_scalar_matrix_p1(ring_p1):
    sc = build_scalar_complex(ring_p1.poset, ring_p1.field)
    mat, rows, cols = differential_matrix(sc, (0, 0), 2)
    assert rows == ["y1", "y2"] and cols == ["x", "z"]
    one = ring_p1.field.one
    assert mat == [[-one, -one], [one, one]]
    mat1, rows1, cols1 = differential_matrix(sc, (0, 0), 1)
    assert rows1 == ["0"] and cols1 == ["y1", "y2"]
    assert mat1 == [[one, one]]


def test_slice_support_condition(ring_p1):
    sc = build_scalar_complex(ring_p1.poset, ring_p1.field)
    mat, rows, cols = differential_matrix(sc, (1, 0), 2)
    assert cols == ["x", "z"] and rows == ["y1"]
    dims = cohomology_dims_at(sc, (1, 0))
    assert dims == {0: 0, -1: 0, -2: 1}


def test_negative_degree_slices_vanish(ring_p1):
    sc = build_scalar_complex(ring_p1.poset, ring_p1.field)
    assert cohomology_dims_at(sc, (-1, 0)) == {0: 0, -1: 0, -2: 0}


@pytest.mark.parametrize("a", [(1,), (1, 0, 0)])
def test_degree_vector_of_wrong_length_is_rejected(ring_p1, a):
    sc = build_scalar_complex(ring_p1.poset, ring_p1.field)
    with pytest.raises(ValueError, match="wrong length"):
        cohomology_dims_at(sc, a)


@pytest.mark.parametrize("a", [(0.5, 1, 1), (1.0, 1, 1)])
def test_degree_entries_must_be_integers(a):
    # a float degree names no slice; both sides reject it as the envelope does
    poset = bundled_poset("solid_triangle")
    sc = build_scalar_complex(poset, QQ)
    with pytest.raises(ValueError, match="degree entries must be integers"):
        cohomology_dims_at(sc, a)
    with pytest.raises(ValueError, match="degree entries must be integers"):
        simplicial_oracle(poset, a)


@pytest.mark.parametrize("a", [(1,), (1, 0, 0, 0), (0.5, 0, 0), (True, 0, 0)])
def test_differential_matrix_checks_its_degree(a):
    # each of these was taken as a degree, (1,) as the all-zero one
    sc = build_scalar_complex(bundled_poset("solid_triangle"), QQ)
    with pytest.raises(ValueError, match="wrong length|degree entries must be integers"):
        differential_matrix(sc, a, 1)


@pytest.mark.parametrize("i", [1.5, True, "1"])
def test_differential_matrix_checks_its_rank(i):
    # 1.5 gave an empty slice, True the rank-1 slice, '1' a TypeError
    sc = build_scalar_complex(bundled_poset("solid_triangle"), QQ)
    with pytest.raises(ValueError, match="rank must be integers"):
        differential_matrix(sc, (0, 0, 0), i)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_differential_matrix_is_empty_at_negative_degrees(name):
    # on solid_triangle at (-1, 0, 0), i = 1 it returned [[1, 1, 1]], a slice
    # that cohomology_dims_at calls empty
    poset = bundled_poset(name)
    sc = build_scalar_complex(poset, QQ)
    for a in product((-1, 0, 1), repeat=len(poset.atoms)):
        if min(a) < 0:
            for i in range(poset.max_rank + 2):
                assert differential_matrix(sc, a, i) == ([], [], []), (a, i)


def test_point_complex():
    point = SimplicialPoset(["pt"], [])
    sc = build_scalar_complex(point, QQ)
    assert cohomology_dims_at(sc, ()) == {0: 1}
    assert simplicial_oracle(point, ()) == {0: 1}


def test_circle_model_p1(ring_p1):
    sc = build_scalar_complex(ring_p1.poset, ring_p1.field)
    assert cohomology_dims_at(sc, (0, 0)) == {0: 0, -1: 0, -2: 1}


def test_known_cohomology_at_zero():
    expected = {
        "hollow_triangle": {0: 0, -1: 0, -2: 1},
        "solid_triangle": {0: 0, -1: 0, -2: 0, -3: 0},
        "tetrahedron_boundary": {0: 0, -1: 0, -2: 0, -3: 1},
        "two_disjoint_edges": {0: 0, -1: 1, -2: 0},
        "double_triangle": {0: 0, -1: 0, -2: 0, -3: 1},
    }
    for name, want in expected.items():
        poset = bundled_poset(name)
        sc = build_scalar_complex(poset, QQ)
        a = (0,) * len(poset.atoms)
        assert cohomology_dims_at(sc, a) == want, name


def test_oracle_matches_all_degrees():
    for name in COMPLEX_BUNDLED:
        poset = bundled_poset(name)
        sc = build_scalar_complex(poset, QQ)
        n = len(poset.atoms)
        for a in product(range(0, 2), repeat=n):
            assert cohomology_dims_at(sc, a) == simplicial_oracle(poset, a), (name, a)


def test_oracle_rejects_non_complexes():
    with pytest.raises(ValueError, match="simplicial complex"):
        simplicial_oracle(bundled_poset("p1"), (0, 0))
    with pytest.raises(ValueError, match="simplicial complex"):
        simplicial_oracle(bundled_poset("double_triangle"), (0, 0, 0))


def test_oracle_vertex_link():
    poset = bundled_poset("hollow_triangle")
    # faces containing one vertex form two arcs; the link is two points
    assert simplicial_oracle(poset, (1, 0, 0)) == {0: 0, -1: 0, -2: 1}
    sc = build_scalar_complex(poset, QQ)
    assert cohomology_dims_at(sc, (1, 0, 0)) == {0: 0, -1: 0, -2: 1}


def test_oracle_over_prime_field():
    poset = bundled_poset("tetrahedron_boundary")
    F2 = PrimeField(2)
    sc = build_scalar_complex(poset, F2)
    a = (0, 0, 0, 0)
    assert cohomology_dims_at(sc, a) == simplicial_oracle(poset, a, F2)


def test_rp2_at_zero_depends_on_the_field():
    poset = face_poset(RP2_FACETS)
    a = (0,) * len(poset.atoms)
    f2 = {0: 0, -1: 0, -2: 1, -3: 1}
    zero = {0: 0, -1: 0, -2: 0, -3: 0}
    for field, want in ((QQ, zero), (PrimeField(2), f2), (PrimeField(3), zero)):
        sc = build_scalar_complex(poset, field)
        assert cohomology_dims_at(sc, a) == want, field
        assert simplicial_oracle(poset, a, field) == want, field


def test_oracle_uses_no_linalg(monkeypatch):
    from facering import linalg

    fields = (QQ, PrimeField(2))
    cases = [
        (name, a, field)
        for name in COMPLEX_BUNDLED
        for a in product(range(2), repeat=len(bundled_poset(name).atoms))
        for field in fields
    ]
    want = [simplicial_oracle(bundled_poset(n), a, f) for n, a, f in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called into linalg")

    for name, obj in list(vars(linalg).items()):
        if callable(obj) and getattr(obj, "__module__", None) == linalg.__name__:
            monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(complexes, "bareiss_rank", refuse)
    got = [simplicial_oracle(bundled_poset(n), a, f) for n, a, f in cases]
    assert got == want


def _reference_rank(rows, field):
    """Rank of int rows by the field-scalar reference elimination."""
    return reference_oracle_rank([[field.from_int(v) for v in r] for r in rows])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.name)
def test_oracle_rank_matches_reference_on_random_matrices(field):
    rng = random.Random(1991)
    p = field.char
    for _ in range(200):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            # a negated copy of a row, or a zero column, lowers the rank
            rows[rng.randrange(m)] = [-v for v in rows[rng.randrange(m)]]
            c = rng.randrange(n)
            for r in rows[: rng.randint(0, m)]:
                r[c] = 0
        want = _reference_rank(rows, field)
        got = _oracle_rank([[v % p if p else v for v in r] for r in rows], p)
        assert got == want, (field.name, rows)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.name)
def test_oracle_rank_matches_reference_on_boundary_matrices(field, monkeypatch):
    seen = []

    def recording(rows, p):
        seen.append(([list(r) for r in rows], p))
        return _oracle_rank(rows, p)

    monkeypatch.setattr(complexes, "_oracle_rank", recording)
    posets = [bundled_poset(name) for name in COMPLEX_BUNDLED]
    posets += [face_poset(RP2_FACETS), face_poset(TORUS7_FACETS)]
    for poset in posets:
        for a in product(range(2), repeat=len(poset.atoms)):
            simplicial_oracle(poset, a, field)
    assert len(seen) > 100
    for rows, p in seen:
        assert p == field.char
        assert all(v in (1, p - 1 if p else -1, 0) for r in rows for v in r)
        assert _oracle_rank([list(r) for r in rows], p) == _reference_rank(rows, field)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3)), ids=lambda f: f.name)
def test_oracle_matches_every_rp2_slice(field):
    poset = face_poset(RP2_FACETS)
    sc = build_scalar_complex(poset, field)
    for a in product(range(2), repeat=len(poset.atoms)):
        assert simplicial_oracle(poset, a, field) == cohomology_dims_at(sc, a), a


def test_euler_characteristic_consistency():
    from facering.complexes import _slice_members

    for name in ("p1", "tetrahedron_boundary", "double_triangle"):
        poset = bundled_poset(name)
        sc = build_scalar_complex(poset, QQ)
        n = len(poset.atoms)
        for a in product(range(0, 2), repeat=n):
            dims = cohomology_dims_at(sc, a)
            lhs = sum((-1) ** i * d for i, d in dims.items())
            rhs = sum(
                (-1) ** i * len(_slice_members(sc, a, i))
                for i in range(poset.max_rank + 1)
            )
            assert lhs == rhs


def test_complex_report_shape():
    poset = bundled_poset("hollow_triangle")
    sc = build_scalar_complex(poset, QQ)
    rep = complex_report(sc, (0, 0, 0), "hollow_triangle", with_oracle=True)
    assert rep["match"] is True
    assert rep["dims"]["-2"] == 1
    assert rep["oracle"]["-2"] == 1
    assert rep["a"] == [0, 0, 0]
    rep2 = complex_report(sc, (0, 0, 0), "hollow_triangle")
    assert rep2["oracle"] is None and rep2["match"] is None


def test_differentials_clean_small():
    ring = make_ring("solid_triangle")
    gc = build_gamma(ring)
    from facering import check_clean

    for (u, l), (sign, m) in gc.maps.items():
        assert check_clean(m, depth_bound=3).passed, (u, l)
