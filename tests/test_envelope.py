import gc
import random
import weakref
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from facering import Envelope, EnvelopeElement, bundled_poset, PolyRing, envelope
from facering.cleanmap import check_clean, check_linearity, cover_map
from facering.complexes import build_gamma, dd_sweep_size, verify_dd_zero
from facering.envelope import bounded_vectors, count_bounded_vectors
from facering.linalg import kernel_basis
from facering.scalars import QQ, PrimeField, add_term

from helpers import (
    ALL_BUNDLED,
    RP2_FACETS,
    TORUS7_FACETS,
    face_poset,
    glued_pair,
    make_ring,
    random_envelope_element,
    random_polynomial,
    reference_annihilator_basis,
    reference_monomials_of_degree,
    subset_expansion_action,
)


@pytest.fixture
def env_x(ring_p1):
    return Envelope.of(ring_p1, "x")


def test_envelope_shapes(ring_p1, env_x):
    assert env_x.atoms == ("y1", "y2")
    assert env_x.inv_vars == ("x", "z")
    e0 = Envelope.of(ring_p1, "0")
    assert e0.atoms == () and e0.inv_vars == ("y1", "y2", "x", "z")
    ey = Envelope.of(ring_p1, "y1")
    assert ey.atoms == ("y1",) and ey.inv_vars == ("y2", "x", "z")
    assert Envelope.of(ring_p1, "x") is env_x


def test_unit(env_x, ring_p1):
    u = env_x.unit()
    assert env_x.degree(env_x.unit_mon) == (0, 0)
    assert env_x.depth(env_x.unit_mon) == 0
    for x in ring_p1.poset.elements:
        e = Envelope.of(ring_p1, x)
        assert e.degree(e.unit_mon) == (0, 0)
    # variables not under x kill the unit
    assert env_x.act_variable("z", u).is_zero()


def test_degree_and_depth_examples(env_x):
    m = env_x.monomial_key({"y1": 1, "y2": 1}, {"x": 1})
    assert env_x.degree(m) == (0, 0)
    assert env_x.depth(m) == 2
    m2 = env_x.monomial_key({"y1": -3}, {"z": 2})
    assert env_x.degree(m2) == (-5, -2)
    assert env_x.depth(m2) == 4


def test_act_variable_displays(env_x, ring_p1):
    one = ring_p1.field.one
    for a, b in product(range(-2, 3), repeat=2):
        for c, d in product(range(0, 3), repeat=2):
            m = env_x.monomial({"y1": a, "y2": b}, {"x": c, "z": d})
            # the ambient element both bumps the Laurent part and contracts
            got = env_x.act_variable("x", m)
            want = env_x.monomial({"y1": a + 1, "y2": b + 1}, {"x": c, "z": d})
            if c >= 1:
                want = want + env_x.monomial({"y1": a, "y2": b}, {"x": c - 1, "z": d})
            assert got == want
            # the parallel element only contracts
            got = env_x.act_variable("z", m)
            want = (
                env_x.monomial({"y1": a, "y2": b}, {"x": c, "z": d - 1})
                if d >= 1
                else env_x.zero()
            )
            assert got == want
            # atoms shift the Laurent part
            assert env_x.act_variable("y1", m) == env_x.monomial(
                {"y1": a + 1, "y2": b}, {"x": c, "z": d}
            )


@pytest.mark.parametrize("a", [(1,), (1, 0, 0)])
def test_monomials_of_degree_rejects_wrong_length(env_x, a):
    with pytest.raises(ValueError, match="wrong length"):
        env_x.monomials_of_degree(a, 2)


def test_act_variable_errors(env_x):
    with pytest.raises(ValueError):
        env_x.act_variable("0", env_x.unit())
    with pytest.raises(ValueError):
        env_x.act_variable("w", env_x.unit())


# each name rule of the envelope at x on p1 (atoms y1, y2; inverse variables
# x, z) is its position tables' __missing__; no entry point checks names itself
ENVELOPE_NAME_CALLS = {
    "monomial_key_laurent": (lambda e: e.monomial_key({"zz": 1}), "no atom below 'x' named 'zz'"),
    "monomial_key_laurent_inverse_name": (
        lambda e: e.monomial_key({"z": 1}), "no atom below 'x' named 'z'"
    ),
    "monomial_key_inverse": (
        lambda e: e.monomial_key(inverse={"zz": 1}), "no inverse variable at 'x' named 'zz'"
    ),
    "monomial_key_inverse_atom": (
        lambda e: e.monomial_key(inverse={"y1": 1}), "no inverse variable at 'x' named 'y1'"
    ),
    "embed_base": (
        lambda e: e.embed_base(e.ring.variable("z")), "no atom below 'x' named 'z'"
    ),
    "act_tilde_atom": (
        lambda e: e.act_tilde("y1", e.unit()), "no inverse variable at 'x' named 'y1'"
    ),
    "act_variable_zero": (
        lambda e: e.act_variable("zz", e.zero()), "no inverse variable at 'x' named 'zz'"
    ),
    "act_variable_bottom": (
        lambda e: e.act_variable("0", e.zero()), "no inverse variable at 'x' named '0'"
    ),
}


@pytest.mark.parametrize("call, message", ENVELOPE_NAME_CALLS.values(), ids=ENVELOPE_NAME_CALLS)
def test_envelope_names_raise_from_the_position_tables(env_x, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(env_x)


# each path whose non-negativity rule is now scalars.check_non_negative, past
# the bounds test_negative_bounds_raise covers
NEGATIVE_INPUT_CALLS = {
    "monomial_key": lambda e: e.monomial_key({"y1": 1}, {"x": -1}),
    "element": lambda e: e.element({((0, 0), (0, -1)): e.field.one}),
    "act_monomial": lambda e: e.act_monomial((0, -1, 0, 0), e.unit()),
    "PolyRing.term": lambda e: e.ring.term(e.field.one, {"x": -1}),
    "annihilator_degree": lambda e: e.annihilator_basis((1, -1), 2),
    "annihilator_depth": lambda e: e.annihilator_basis((1, 0), -1),
    "dd_sweep_size": lambda e: dd_sweep_size(e.ring, -1),
}


@pytest.mark.parametrize("call", NEGATIVE_INPUT_CALLS.values(), ids=NEGATIVE_INPUT_CALLS)
def test_negative_inputs_raise_non_negative(env_x, call):
    with pytest.raises(ValueError, match="must be non-negative, got"):
        call(env_x)


def test_least_depth_must_be_an_integer(env_x):
    # a float least depth was taken as a bound; a negative one is no bound
    with pytest.raises(ValueError, match="least depth must be integers"):
        env_x.monomials_of_degree((0, 0), 2, depth_min=0.5)
    assert env_x.monomials_of_degree((0, 0), 2, depth_min=-3) == env_x.monomials_of_degree(
        (0, 0), 2
    )


def test_act_polynomial_examples(env_x, ring_p1):
    u = env_x.unit()
    f = ring_p1.parse("t[y1]*t[y2] - t[x] - t[z]")
    assert env_x.act_polynomial(f, u).is_zero()
    assert env_x.act_polynomial(ring_p1.one(), u) == u
    got = env_x.act_polynomial(ring_p1.parse("t[y1]*t[y2]"), u)
    assert got == env_x.monomial({"y1": 1, "y2": 1})


def test_act_polynomial_matches_subset_expansion(ring_p1, rng):
    """On p1 and on the tetrahedron's boundary, whose facets bump three
    atoms at once."""
    tet = make_ring("tetrahedron_boundary")
    for ring, xs in ((ring_p1, ("x", "y1", "0")), (tet, ("123", "12", "0"))):
        for x in xs:
            env = Envelope.of(ring, x)
            for _ in range(60):
                f = random_polynomial(ring, rng, terms=1, max_vars=2, max_exp=2)
                ((mon, c),) = f.terms.items()
                e = random_envelope_element(env, rng)
                via_iteration = env.act_monomial(mon, e)
                via_subsets = subset_expansion_action(env, mon, e)
                assert via_iteration == via_subsets


def test_actions_reject_another_envelopes_element():
    """At 12 on the solid triangle, elements of 13 (same shape), of 123 (a
    larger one) and of 12 in another ring over the same poset."""
    ring = make_ring("solid_triangle")
    env = Envelope.of(ring, "12")
    t2 = ring.variable("2")
    ((exps, _),) = t2.terms.items()
    calls = [
        lambda e: env.act_variable("2", e),
        lambda e: env.act_monomial(exps, e),
        lambda e: env.act_monomial((0,) * ring.nvars, e),
        lambda e: env.act_polynomial(t2, e),
        lambda e: env.act_polynomial(ring.zero(), e),
        lambda e: env.act_tilde("3", e),
        lambda e: env.act_laurent((0, 0), e),
        lambda e: env.essential_witness(e),
    ]
    foreign = [
        Envelope.of(ring, "13").monomial(inverse={"2": 1}),
        Envelope.of(ring, "13").unit(),
        Envelope.of(ring, "123").unit(),
        Envelope.of(make_ring("solid_triangle"), "12").unit(),
    ]
    for e in foreign:
        for call in calls:
            with pytest.raises(ValueError, match="different envelope"):
                call(e)


def test_act_laurent_and_act_monomial_check_their_tuples():
    ring = make_ring("solid_triangle")
    env = Envelope.of(ring, "123")
    unit = env.unit()
    assert env.act_laurent((1, 0, -1), unit) == env.monomial({"1": 1, "3": -1})
    for shift in [(1,), (1, 0, 0, 0), (0.5, 0, 0), ("1", 0, 0)]:
        with pytest.raises(ValueError):
            env.act_laurent(shift, unit)
    n = ring.nvars
    for exps in [(1,), (0,) * (n + 1), (1.0,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)]:
        with pytest.raises(ValueError):
            env.act_monomial(exps, unit)


def test_act_tilde(env_x, ring_p1, rng):
    assert env_x.act_tilde("x", env_x.monomial(inverse={"x": 1})) == env_x.unit()
    assert env_x.act_tilde("z", env_x.unit()).is_zero()
    with pytest.raises(ValueError):
        env_x.act_tilde("y1", env_x.unit())
    # agreement with the polynomial route on random elements
    for _ in range(200):
        z = rng.choice(env_x.inv_vars)
        e = random_envelope_element(env_x, rng)
        assert env_x.act_tilde(z, e) == env_x.act_polynomial(
            ring_p1.tilde_of("x", z), e
        )


def test_act_tilde_agreement_other_posets(rng):
    ring = make_ring("solid_triangle")
    env = Envelope.of(ring, "123")
    for _ in range(100):
        z = rng.choice(env.inv_vars)
        e = random_envelope_element(env, rng, depth_max=4)
        assert env.act_tilde(z, e) == env.act_polynomial(ring.tilde_of("123", z), e)


def test_module_axioms_random(rng):
    for name in ("p1", "hollow_triangle"):
        ring = make_ring(name)
        for x in ring.poset.elements:
            env = Envelope.of(ring, x)
            for _ in range(40):
                f = random_polynomial(ring, rng, terms=2, max_vars=2, max_exp=1)
                g = random_polynomial(ring, rng, terms=2, max_vars=2, max_exp=1)
                e = random_envelope_element(env, rng)
                assert env.act_polynomial(f * g, e) == env.act_polynomial(
                    f, env.act_polynomial(g, e)
                )
                assert env.act_polynomial(f + g, e) == env.act_polynomial(
                    f, e
                ) + env.act_polynomial(g, e)


def test_graded_action(env_x, ring_p1, rng):
    for _ in range(80):
        f = random_polynomial(ring_p1, rng, terms=1, max_vars=2, max_exp=2)
        ((mon, _),) = f.terms.items()
        e = random_envelope_element(env_x, rng, terms=1)
        ((emon, _),) = e.terms.items()
        out = env_x.act_monomial(mon, e)
        want = tuple(
            a + b
            for a, b in zip(ring_p1.monomial_degree(mon), env_x.degree(emon))
        )
        for om in out.terms:
            assert env_x.degree(om) == want


def test_action_never_raises_depth(env_x, ring_p1, rng):
    for _ in range(120):
        e = random_envelope_element(env_x, rng)
        d = e.max_depth()
        z = rng.choice(ring_p1.variables)
        out = env_x.act_variable(z, e)
        assert out.max_depth() <= d


def test_defining_ideal_kills_base(ring_p1):
    # every generator annihilates every embedded monomial of the quotient
    for x in ring_p1.poset.elements:
        env = Envelope.of(ring_p1, x)
        atoms = env.atoms
        for exps in product(range(0, 3), repeat=len(atoms)):
            base = env.monomial(dict(zip(atoms, exps)))
            for f in ring_p1.generators():
                assert env.act_polynomial(f, base).is_zero()


def test_degree_support_constraint():
    # nonzero graded pieces need non-positive entries outside the atoms below x
    ring = make_ring("hollow_triangle")
    env = Envelope.of(ring, "12")
    assert env.monomials_of_degree((0, 0, 1), depth_max=4) == []
    assert env.monomials_of_degree((2, 0, -2), depth_max=4) != []
    assert env.monomials_of_degree((0, 0, -2), depth_max=1) == []


def test_monomials_of_degree_enumeration(env_x):
    mons = env_x.monomials_of_degree((1, 1), depth_max=3)
    assert env_x.monomial_key({"y1": 1, "y2": 1}) in mons
    assert env_x.monomial_key({"y1": 2, "y2": 2}, {"x": 1}) in mons
    assert env_x.monomial_key({"y1": 2, "y2": 2}, {"z": 1}) in mons
    assert len(mons) == 3
    for m in mons:
        assert env_x.degree(m) == (1, 1)
        assert env_x.depth(m) <= 3


@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2",))
def test_monomials_of_degree_match_reference(name):
    poset = face_poset(RP2_FACETS) if name == "rp2" else bundled_poset(name)
    ring = PolyRing(poset)
    degrees = list(product(range(-2, 3), repeat=ring.natoms))
    if name == "rp2":
        degrees = random.Random(1).sample(degrees, 300)
    memo = {}
    for x in poset.elements:
        env = Envelope.of(ring, x)
        for depth in range(4):
            for a in degrees:
                for depth_min in (0, 1):
                    want = reference_monomials_of_degree(env, a, depth, depth_min, memo)
                    got = env.monomials_of_degree(a, depth, depth_min)
                    assert got == want, (x, a, depth, depth_min)


def test_degree_slices_share_one_enumeration(monkeypatch):
    calls = []

    def counting(weights, budget):
        calls.append((tuple(weights), budget))
        return bounded_vectors(weights, budget)

    monkeypatch.setattr(envelope, "bounded_vectors", counting)
    ring = make_ring("tetrahedron_boundary")
    for x in ring.poset.elements:
        env = Envelope.of(ring, x)
        calls.clear()
        for a in product(range(3), repeat=ring.natoms):
            env.monomials_of_degree(a, 3)
            env.monomials_of_degree(a, 3, depth_min=1)
        assert len(calls) == 1, x


def test_box_and_slice_share_full_inverse_vectors():
    # at a top face the degree-zero slice may use every inverse position,
    # and the box reads all of them by default: one cache entry serves both
    ring = make_ring("solid_triangle")
    env = Envelope(ring, "123")
    list(env.monomial_box(1, 3))
    env.monomials_of_degree((0, 0, 0), 3)
    assert [key for key in env._invcache if key[0] == 3] == [(3, None)]


def test_annihilator_p1(env_x, ring_p1):
    basis = env_x.annihilator_basis((1, 1), 3)
    assert len(basis) == 1
    (vec,) = basis
    embedded = env_x.embed_base(ring_p1.parse("t[y1]*t[y2]"))
    # one-dimensional, spanned by the embedded quotient element
    (coeff,) = {
        c / embedded.terms[m] for m, c in vec.terms.items() if m in embedded.terms
    }
    assert vec == embedded.scale(coeff)


def test_annihilator_degree_zero(ring_p1):
    for x in ring_p1.poset.elements:
        env = Envelope.of(ring_p1, x)
        for m in (1, 2, 3):
            basis = env.annihilator_basis((0, 0), m)
            assert len(basis) == 1
            assert basis[0].terms.keys() == {env.unit_mon}


def test_annihilator_dimension_table(ring_p1):
    expected = {"x": 1, "z": 1, "y1": 0, "y2": 0, "0": 0}
    for x, want in expected.items():
        env = Envelope.of(ring_p1, x)
        assert len(env.annihilator_basis((0, 1), 2)) == (1 if x in ("x", "z", "y2") else 0)
        assert len(env.annihilator_basis((1, 1), 2)) == want


def test_annihilator_rejects_negative(env_x):
    with pytest.raises(ValueError):
        env_x.annihilator_basis((-1, 0), 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
def test_annihilator_matches_reference(field):
    """Bases equal, exactly, to the subset-expansion reference on every
    element of every bundled poset and of RP^2, at 0/1 degrees (0/1/2 up to
    four atoms) and depths 0-3."""
    posets = [bundled_poset(name) for name in ALL_BUNDLED] + [face_poset(RP2_FACETS)]
    for poset in posets:
        ring = PolyRing(poset, field)
        top = 2 if ring.natoms <= 4 else 1
        for x in poset.elements:
            env = Envelope.of(ring, x)
            for a in product(range(top + 1), repeat=ring.natoms):
                for depth in range(4):
                    got = env.annihilator_basis(a, depth)
                    assert got == reference_annihilator_basis(env, a, depth), (x, a, depth)


def _equivariance_cases(field):
    """(poset, fresh ring, degree box) over the bundled posets, RP^2 and a
    gluing that is not a complex; 0/1/2 degrees up to four atoms, else 0/1."""
    posets = [bundled_poset(name) for name in ALL_BUNDLED]
    for poset in posets + [face_poset(RP2_FACETS), glued_pair("123")]:
        ring = PolyRing(poset, field)
        top = 2 if ring.natoms <= 4 else 1
        yield poset, ring, list(product(range(top + 1), repeat=ring.natoms))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
def test_annihilator_is_the_translate_of_degree_zero(field):
    """On a cold cache the basis at a, the box's far corner on the atoms of
    x and zero elsewhere, is the reference's and is ``act_laurent(a_x, .)``
    of the basis at degree zero solved on a fresh ring."""
    for poset, ring, box in _equivariance_cases(field):
        fresh = PolyRing(poset, field)
        zero, top = box[0], box[-1][0]
        for x in poset.elements:
            env, env0 = Envelope.of(ring, x), Envelope.of(fresh, x)
            a = tuple(top if poset.leq(atom, x) else 0 for atom in poset.atoms)
            ax = (top,) * env.natoms
            for depth in range(4):
                got = env.annihilator_basis(a, depth)
                assert got == reference_annihilator_basis(env, a, depth), (x, a, depth)
                shifted = [env0.act_laurent(ax, v).terms for v in env0.annihilator_basis(zero, depth)]
                assert shifted == [v.terms for v in got], (x, a, depth)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
def test_annihilator_sweep_in_reverse_order(field):
    """A degree box swept from its far corner down on a fresh ring, deepest
    bound first, gives the reference's bases."""
    for poset, ring, box in _equivariance_cases(field):
        for x in poset.elements:
            env = Envelope.of(ring, x)
            for a in reversed(box):
                for depth in reversed(range(4)):
                    got = env.annihilator_basis(a, depth)
                    assert got == reference_annihilator_basis(env, a, depth), (x, a, depth)


def test_annihilator_solves_one_kernel_per_depth(monkeypatch):
    """One elimination per (element, depth bound) with a nonempty slice,
    whatever the degree, and none for an empty slice."""
    calls = []

    def counting(rows, ncols, field):
        calls.append(ncols)
        return kernel_basis(rows, ncols, field)

    monkeypatch.setattr(envelope, "kernel_basis", counting)
    for poset in (bundled_poset("tetrahedron_boundary"), glued_pair("123")):
        ring = PolyRing(poset, QQ)
        box = list(product(range(3), repeat=ring.natoms))
        for x in poset.elements:
            env = Envelope.of(ring, x)
            for depth in range(4):
                empty = [a for a in box if not reference_monomials_of_degree(env, a, depth)]
                calls.clear()
                assert all(env.annihilator_basis(a, depth) == [] for a in empty)
                assert calls == [], (x, depth)
                for a in box:
                    env.annihilator_basis(a, depth)
                assert len(calls) == 1, (x, depth)


def test_annihilator_skip_keeps_part_of_a_relation(ring_p1):
    """At x in p1, z is not below x.  On the slice monomials with no z in
    their inverse part the feasibility rule drops the t[z] term of
    t[y1]*t[y2] - t[x] - t[z] and keeps the other two; t[z] kills those
    monomials, so the basis is unchanged."""
    env = Envelope.of(ring_p1, "x")
    kz = ring_p1.variables.index("z")
    jz = env.inv_vars.index("z")
    assert not ring_p1.poset.leq("z", "x")
    (gi,) = {gi for gi, ks, _ in ring_p1.relation_terms() if ks == (kz,)}
    assert len([ks for g, ks, _ in ring_p1.relation_terms() if g == gi]) == 3
    # the t[z] term's one path contracts z once
    table, _ = env._relation_table()
    assert gi in table[(jz,)][0::2]
    mons = env.monomials_of_degree((1, 1), depth_max=3)
    skipped = [m for m in mons if m[1][jz] == 0]
    assert skipped and len(skipped) < len(mons)
    for m in skipped:
        assert env.act_variable("z", env.element({m: ring_p1.field.one})).is_zero()
    for field in (QQ, PrimeField(2), PrimeField(3)):
        e = Envelope.of(PolyRing(ring_p1.poset, field), "x")
        basis = e.annihilator_basis((1, 1), 3)
        assert len(basis) == 1
        assert basis == reference_annihilator_basis(e, (1, 1), 3)


def _table_image(env, mon):
    """{(relation index, target inverse part): count} of mon under the
    relation table, each contraction multiset kept where its target's
    inverse part is non-negative."""
    table, _ = env._relation_table()
    out = {}
    for need, flat in table.items():
        tinv = list(mon[1])
        for j in need:
            tinv[j] -= 1
        if min(tinv, default=0) >= 0:
            it = iter(flat)
            for gi, n in zip(it, it):
                add_term(out, (gi, tuple(tinv)), n)
    return out


def _walk_image(env, mon):
    """The same image, walking each relation term through ``_step``, after
    checking on every path end that the relation and the target inverse
    part fix the Laurent part."""
    out, lau_of = {}, {}
    for gi, ks, c in env.ring.relation_terms():
        ends = [mon]
        for k in ks:
            ends = [t for m in ends for t in env._step(env.ring.variables[k], m)]
        for lau, inv in ends:
            assert lau_of.setdefault((gi, inv), lau) == lau, (gi, inv)
            add_term(out, (gi, inv), c)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=repr)
def test_relation_table_matches_step_walk(field):
    """On every envelope of the bundled posets, RP^2, the seven-vertex torus
    and a gluing (relations with two joins and with bottom meets) a
    ``_step`` walk of each relation term never reaches two Laurent parts
    with one relation and target inverse part, and the table's counts per
    (relation, target inverse part) equal the walk's, at monomials with
    inverse exponent 0 and 1 at each position and a shifted Laurent part.
    The walk is slow on the torus: one element of each rank there."""
    posets = [bundled_poset(name) for name in ALL_BUNDLED]
    posets += [face_poset(RP2_FACETS), glued_pair("123")]
    cases = [(poset, poset.elements) for poset in posets]
    cases.append((face_poset(TORUS7_FACETS), ("0", "1", "12", "124")))
    for poset, elements in cases:
        ring = PolyRing(poset, field)
        for x in elements:
            env = Envelope.of(ring, x)
            shift = tuple(range(-1, env.natoms - 1))
            mons = [env.unit_mon, (shift, (1,) * env.ninv)]
            for j in range(env.ninv):
                unit = tuple(int(i == j) for i in range(env.ninv))
                mons += [(shift, unit), (shift, tuple(1 - e for e in unit))]
            for mon in mons:
                assert _table_image(env, mon) == _walk_image(env, mon), (x, mon)


def test_relation_table_steps_each_variable_once(monkeypatch):
    steps = []
    step = Envelope._step

    def counting(env, z, mon):
        steps.append(z)
        return step(env, z, mon)

    monkeypatch.setattr(Envelope, "_step", counting)
    for poset in (bundled_poset("tetrahedron_boundary"), glued_pair("123")):
        ring = PolyRing(poset, QQ)
        for x in poset.elements:
            steps.clear()
            Envelope.of(ring, x)._relation_table()
            assert sorted(steps) == sorted(ring.variables), x


def test_relation_table_is_built_once_per_envelope(monkeypatch):
    calls = []
    relation_terms = PolyRing.relation_terms

    def counting(ring):
        calls.append(ring)
        return relation_terms(ring)

    monkeypatch.setattr(PolyRing, "relation_terms", counting)
    ring = make_ring("tetrahedron_boundary")
    for x in ring.poset.elements:
        env = Envelope.of(ring, x)
        calls.clear()
        for a in product(range(2), repeat=ring.natoms):
            for depth in range(4):
                env.annihilator_basis(a, depth)
        assert len(calls) == 1, x
    # boxes, slices and cover maps build no table
    ring = make_ring("solid_triangle")
    cmap = cover_map(ring, "123", "12")
    assert check_clean(cmap, 3).passed and check_linearity(cmap, 1, 2).passed
    env = Envelope.of(ring, "123")
    list(env.monomial_box(1, 2))
    env.monomials_of_degree((1, 1, 0), 3)
    assert env._table is None and cmap.target_env._table is None


@pytest.mark.parametrize(
    "call",
    [
        lambda env: env.annihilator_basis((1.0, 1), 2),
        lambda env: env.annihilator_basis((1, 1), 2.5),
        # (0, 1) is positive at y2, not below y1: an empty slice
        lambda env: Envelope.of(env.ring, "y1").annihilator_basis((0, 1), 2.5),
        lambda env: env.monomial(laurent={"y1": 0.5}, inverse={"x": 1}),
        lambda env: env.monomial(laurent={"y1": 1}, inverse={"x": 1.5}),
        lambda env: env.monomial_key(inverse={"z": Fraction(1)}),
        lambda env: env.monomials_of_degree((0.5, 0), 2),
        lambda env: env.monomials_of_degree((Fraction(1), 1), 2),
        lambda env: env.monomials_of_degree((1, 1), 2.5),
        lambda env: env.monomial_box(2.5, 1),
        lambda env: env.box_size(1, 2.5, "y1"),
        lambda env: bounded_vectors((1, 2), 2.5),
        lambda env: check_clean(cover_map(env.ring, "x", "y1"), 2.5),
        lambda env: check_linearity(cover_map(env.ring, "x", "y1"), 1.5, 1),
    ],
)
def test_non_integer_degrees_and_bounds_are_rejected(env_x, call):
    with pytest.raises(ValueError, match="integer"):
        call(env_x)


def test_annihilator_builds_one_element_per_basis_vector(monkeypatch):
    env = Envelope.of(make_ring("tetrahedron_boundary"), "123")
    built = []
    init = EnvelopeElement.__init__

    def counting_init(self, owner, terms):
        built.append(terms)
        init(self, owner, terms)

    monkeypatch.setattr(EnvelopeElement, "__init__", counting_init)
    for a, depth in (((1, 1, 1, 0), 3), ((1, 1, 0, 0), 2), ((2, 1, 1, 0), 3)):
        assert len(env.monomials_of_degree(a, depth)) > 1
        built.clear()
        basis = env.annihilator_basis(a, depth)
        assert basis and len(built) == len(basis)


def test_essential_witness_examples(env_x, ring_p1):
    assert env_x.essential_witness(env_x.unit()) == ring_p1.one()
    e = env_x.monomial({"y1": -1}, {"x": 1})
    f = env_x.essential_witness(e)
    assert f == ring_p1.variable("y1") * ring_p1.tilde_of("x", "x")
    out = env_x.act_polynomial(f, e)
    assert out == env_x.unit()
    with pytest.raises(ValueError):
        env_x.essential_witness(env_x.zero())


def test_essential_witness_random(rng):
    for name in ("p1", "solid_triangle"):
        ring = make_ring(name)
        poset = ring.poset
        for _ in range(100):
            x = rng.choice(poset.elements)
            env = Envelope.of(ring, x)
            e = random_envelope_element(env, rng, depth_max=3)
            f = env.essential_witness(e)
            out = env.act_polynomial(f, e)
            assert not out.is_zero() and env.in_base(out)


def test_in_L(env_x):
    inside = env_x.monomial({"y1": 1, "y2": 1}, {"x": 1})
    assert env_x.L_defect(inside) is None
    assert env_x.L_defect(env_x.unit()) is not None
    negative_degree = env_x.monomial({"y1": -1}, {"x": 1})
    assert env_x.L_defect(negative_degree) is not None
    assert env_x.L_defect(inside + env_x.unit()) == env_x.unit_mon


def test_element_json(env_x, ring_p1):
    e = env_x.monomial({"y1": 2}, {"x": 1}) + env_x.unit().scale(
        ring_p1.field.parse("-1/2")
    )
    obj = env_x.element_to_json(e)
    assert obj["ambient"] == "x"
    assert obj["terms"] == [
        {"laurent": {}, "inverse": {}, "coeff": "-1/2"},
        {"laurent": {"y1": 2}, "inverse": {"x": 1}, "coeff": "1"},
    ]


def test_prime_field_envelope(rng):
    ring = PolyRing(bundled_poset("p1"), PrimeField(2))
    env = Envelope.of(ring, "x")
    u = env.unit()
    doubled = env.act_polynomial(ring.parse("t[x] + t[x]"), env.monomial(inverse={"x": 2}))
    assert doubled.is_zero()
    f = ring.parse("t[y1]*t[y2] + t[x] + t[z]")
    assert env.act_polynomial(f, u).is_zero()


# ---------- the certification box ----------

@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(1, 4), max_size=4),
    budget=st.integers(0, 7),
)
def test_bounded_vectors_match_brute_force(weights, budget):
    brute = [
        v
        for v in product(*(range(budget // w + 1) for w in weights))
        if sum(e * w for e, w in zip(v, weights)) <= budget
    ]
    vecs = bounded_vectors(weights, budget)
    assert vecs == brute
    assert count_bounded_vectors(weights, budget) == len(brute)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_box_size_counts_monomial_box(name):
    ring = make_ring(name)
    poset = ring.poset
    for x in poset.elements:
        env = Envelope.of(ring, x)
        for lb, db in product((0, 1, 2), (0, 1, 3)):
            full = list(env.monomial_box(lb, db))
            assert full == sorted(full, key=lambda m: (m[1], m[0]))
            assert all(
                env.depth(m) <= db and all(abs(e) <= lb for e in m[0]) for m in full
            )
            assert env.box_size(lb, db) == len(full), (x, lb, db)
            # the active box of each descent: zero off the active positions,
            # the removed atoms' exponents at most zero
            for w in poset.elements:
                if not poset.leq(w, x):
                    continue
                lpos, ipos = env.active_positions(w)
                want = [
                    (lau, inv)
                    for lau, inv in full
                    if all(e <= 0 if i in lpos else e == 0 for i, e in enumerate(lau))
                    and all(e == 0 for j, e in enumerate(inv) if j not in ipos)
                ]
                box = list(env.monomial_box(lb, db, w))
                assert box == want, (x, w, lb, db)
                assert env.box_size(lb, db, w) == len(box), (x, w, lb, db)
            assert list(env.monomial_box(lb, db, x)) == [env.unit_mon]


def test_negative_bounds_raise(ring_p1):
    env = Envelope.of(ring_p1, "x")
    calls = [
        lambda: bounded_vectors((1, 2), -1),
        lambda: count_bounded_vectors((1, 2), -1),
        lambda: env.monomial_box(-1, 2),
        lambda: env.monomial_box(1, -1),
        lambda: env.monomial_box(-1, 2, "y1"),
        lambda: env.monomial_box(1, -1, "y1"),
        lambda: env.box_size(1, -1, "y1"),
        lambda: env.box_size(-1, 2),
        lambda: env.box_size(1, -1),
        lambda: env.monomials_of_degree((0, 0), -1),
        lambda: check_linearity(cover_map(ring_p1, "x", "y1"), -1, 2),
        lambda: check_clean(cover_map(ring_p1, "x", "y1"), -2),
        lambda: verify_dd_zero(build_gamma(make_ring("tetrahedron_boundary")), -1, 1),
        lambda: verify_dd_zero(build_gamma(ring_p1), 1, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-negative"):
            call()


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_active_positions_of_a_cover_is_its_removed_atom(name):
    ring = make_ring(name)
    poset = ring.poset
    for u, l in poset.covers:
        env = Envelope.of(ring, u)
        lpos, ipos = env.active_positions(l)
        assert [env.atoms[i] for i in lpos] == [poset.removed_atom(u, l)]
        assert all(poset.leq(poset.removed_atom(u, l), env.inv_vars[j]) for j in ipos)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_active_positions_on_rank2_intervals(name):
    ring = make_ring(name)
    poset = ring.poset
    for w, x, _ in poset.rank2_intervals():
        env = Envelope.of(ring, x)
        gone = set(poset.atoms_below(x)) - set(poset.atoms_below(w))
        want_i = [
            j
            for j, y in enumerate(env.inv_vars)
            if poset.leq(y, x) and not poset.leq(y, w)
        ]
        lpos, ipos = env.active_positions(w)
        assert {env.atoms[i] for i in lpos} == gone and len(lpos) == 2
        assert list(ipos) == want_i, (w, x)


def test_active_positions_need_an_element_below(ring_p1):
    with pytest.raises(ValueError, match="not below"):
        Envelope.of(ring_p1, "x").active_positions("z")


def test_dropped_ring_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = make_ring("tetrahedron_boundary")
        env = Envelope.of(ring, "123")
        m = cover_map(ring, "123", "12")
        image = m(env.unit())
        gamma = build_gamma(ring)
        ref = weakref.ref(ring)
        del ring, env, m, image, gamma
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_envelope_cache_keeps_a_held_envelope(ring_p1):
    elem = Envelope.of(ring_p1, "x").unit()
    gc.collect()
    assert all(Envelope.of(ring_p1, "x") is elem.env for _ in range(3))


F3 = PrimeField(3)


@pytest.mark.parametrize(
    "field, coeff, shown",
    ((QQ, Fraction(-1, 2), "-1/2"), (F3, F3.from_int(-1), "2")),
    ids=("Q", "F3"),
)
def test_element_printer(field, coeff, shown):
    env = Envelope.of(PolyRing(bundled_poset("p1"), field), "x")
    elem = (
        env.unit()
        + env.monomial({"y2": 1}, {"z": 2})
        + env.monomial({"y1": 2, "y2": -1}, {"x": 1}, coeff=coeff)
    )
    assert env.format(env.zero()) == "0"
    assert repr(env.zero()) == "<at x: 0>"
    assert repr(elem) == (
        f"<at x: ({shown})*(t[y1]^2*t[y2]^-1 (x) t[x]^-1)"
        " + (1)*(t[y2] (x) t[z]^-2) + (1)*(1 (x) 1)>"
    )


def test_sums_across_envelopes_raise(ring_p1):
    same_ring = Envelope.of(ring_p1, "y1").unit()
    other_ring = Envelope.of(PolyRing(bundled_poset("p1"), QQ), "x").unit()
    e = Envelope.of(ring_p1, "x").unit()
    for f in (same_ring, other_ring):
        for op in (lambda: e + f, lambda: e - f, lambda: f + e, lambda: f - e):
            with pytest.raises(ValueError):
                op()
        assert e != f and f != e


def test_elements_are_not_hashable(env_x):
    with pytest.raises(TypeError):
        hash(env_x.unit())
    assert type(env_x.unit() - env_x.unit()) is EnvelopeElement


_BAD_ELEMENT_TERMS = {
    "short Laurent part": lambda f: {((1,), (0, 0, 0, 0)): f.one},
    "short inverse part": lambda f: {((0, 0, 0), (0,)): f.one},
    "both parts short": lambda f: {((1,), (0,)): f.one},
    "plain int, no inverse part": lambda f: {((0, 0, 0), ()): 5},
    "float exponent": lambda f: {((0.5, 0, 0), (0, 0, 0, 0)): f.one},
    "float inverse exponent": lambda f: {((0, 0, 0), (1.0, 0, 0, 0)): f.one},
    "negative inverse exponent": lambda f: {((0, 0, 0), (0, -1, 0, 0)): f.one},
    "key not a pair": lambda f: {(((0, 0, 0), (0, 0, 0, 0)),): f.one},
    "plain int coefficient": lambda f: {((0, 0, 0), (0, 0, 0, 0)): 5},
    "residue of another field": lambda f: {((0, 0, 0), (0, 0, 0, 0)): F3.one},
}


@pytest.mark.parametrize("field", (QQ, PrimeField(2)), ids=("Q", "F2"))
@pytest.mark.parametrize("kind", sorted(_BAD_ELEMENT_TERMS))
def test_element_rejects_malformed_terms(field, kind):
    # solid_triangle at 123: three atoms, four inverse variables
    env = Envelope.of(PolyRing(bundled_poset("solid_triangle"), field), "123")
    assert (env.natoms, env.ninv) == (3, 4)
    with pytest.raises(ValueError):
        env.element(_BAD_ELEMENT_TERMS[kind](field))


def test_element_keeps_well_formed_terms_and_drops_zeros():
    env = Envelope.of(PolyRing(bundled_poset("solid_triangle"), F3), "123")
    mon = ((1, -2, 0), (0, 1, 0, 2))
    e = env.element({mon: F3.from_int(2), env.unit_mon: F3.zero})
    assert e.terms == {mon: F3.from_int(2)}
    with pytest.raises(ValueError, match="scalar of F3"):
        env.monomial({"1": 1}, coeff=2)
