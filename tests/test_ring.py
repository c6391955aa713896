import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from facering import Envelope, PolyRing, SimplicialPoset, bundled_poset
from facering.scalars import QQ, PrimeField

from helpers import (
    ALL_BUNDLED,
    RP2_FACETS,
    TORUS7_FACETS,
    face_poset,
    glued_pair,
    make_ring,
    random_polynomial,
    reference_generators,
    reference_prime_generators,
)


# ---------- grading ----------

def test_variable_degrees_p1(ring_p1):
    assert ring_p1.variable_degree("y1") == (1, 0)
    assert ring_p1.variable_degree("y2") == (0, 1)
    assert ring_p1.variable_degree("x") == (1, 1)
    assert ring_p1.variable_degree("z") == (1, 1)


def test_variable_degree_errors(ring_p1):
    with pytest.raises(ValueError):
        ring_p1.variable_degree("0")
    with pytest.raises(ValueError):
        ring_p1.variable_degree("nope")


@pytest.mark.parametrize("e", [0.5, 1.0, Fraction(1), "1"], ids=repr)
def test_non_integer_exponents_are_rejected(ring_p1, e):
    # a stored 0.5 printed as t[x] and straightened as if it were 1
    with pytest.raises(ValueError, match="integer"):
        ring_p1.monomial({"x": e})
    with pytest.raises(ValueError, match="integer"):
        ring_p1.term(Fraction(2), {"y1": 1, "x": e})
    assert ring_p1.monomial({"x": 2}) == ring_p1.variable("x") * ring_p1.variable("x")


@pytest.mark.parametrize(
    "field, coeff",
    [(PrimeField(2), 5), (PrimeField(2), PrimeField(3).from_int(2)),
     (QQ, 5), (QQ, PrimeField(2).one)],
    ids=("F2-int", "F2-F3", "Q-int", "Q-F2"),
)
def test_term_rejects_a_coefficient_outside_the_field(field, coeff):
    # over F2 a stored int 5 failed to print, and an F3 residue 2 added to
    # the F2 monomial t[1] gave zero
    ring = PolyRing(bundled_poset("solid_triangle"), field)
    with pytest.raises(ValueError, match=f"scalar of {field!r}"):
        ring.term(coeff, {"1": 1})
    assert ring.term(field.from_int(3), {"1": 1}) == ring.monomial({"1": 1}).scale(
        field.from_int(3)
    )


def test_atom_degree_is_coordinate_vector():
    for name in ("hollow_triangle", "tetrahedron_boundary"):
        ring = make_ring(name)
        for g, a in enumerate(ring.poset.atoms):
            d = ring.variable_degree(a)
            assert d[g] == 1 and sum(d) == 1


def test_degree_sum_p1(ring_p1):
    # (1,0)+(0,1)+(1,1)+(1,1)
    assert ring_p1.degree_sum() == (3, 3)


def test_monomial_degree_additive(ring_p1, rng):
    for _ in range(50):
        f = random_polynomial(ring_p1, rng, terms=1)
        g = random_polynomial(ring_p1, rng, terms=1)
        (mf,) = f.terms
        (mg,) = g.terms
        (mfg,) = (f * g).terms
        left = ring_p1.monomial_degree(mfg)
        right = tuple(
            a + b
            for a, b in zip(ring_p1.monomial_degree(mf), ring_p1.monomial_degree(mg))
        )
        assert left == right


# ---------- arithmetic laws ----------

def _polys(ring):
    coeffs = st.integers(min_value=-4, max_value=4)
    exps = st.lists(
        st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, 2)),
        min_size=0,
        max_size=2,
    )
    term = st.tuples(coeffs, exps)

    def build(terms):
        f = ring.zero()
        for c, pairs in terms:
            vec = [0] * ring.nvars
            for k, e in pairs:
                vec[k] += e
            from facering.ring import Polynomial

            cc = ring.field.from_int(c)
            if cc:
                f = f + Polynomial(ring, {tuple(vec): cc})
        return f

    return st.lists(term, min_size=0, max_size=3).map(build)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(data):
    ring_p1 = make_ring("p1")
    polys = _polys(ring_p1)
    f, g, h = data.draw(polys), data.draw(polys), data.draw(polys)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f + g == g + f
    assert f - f == ring_p1.zero()


def test_scale_and_neg(ring_p1):
    f = ring_p1.parse("2*t[x] - t[y1]")
    assert f.scale(Fraction(1, 2)) == ring_p1.parse("t[x] - 1/2*t[y1]")
    assert (-f) + f == ring_p1.zero()


# ---------- defining relations ----------

def test_generators_p1(ring_p1):
    gens = set(ring_p1.generators())
    expected = {
        ring_p1.parse("t[y1]*t[y2] - t[x] - t[z]"),
        ring_p1.parse("t[x]*t[z]"),
    }
    assert gens == expected


def test_generators_chain_poset_empty():
    from facering import SimplicialPoset

    chain = SimplicialPoset(["0", "a"], [["a", "0"]])
    ring = PolyRing(chain, QQ)
    assert ring.generators() == ()


def test_generators_disjoint_atoms():
    from facering import SimplicialPoset

    p = SimplicialPoset(["0", "a", "b"], [["a", "0"], ["b", "0"]])
    ring = PolyRing(p, QQ)
    assert set(ring.generators()) == {ring.parse("t[a]*t[b]")}


@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2", "glued_pair"))
def test_generators_match_the_pairwise_loop(name):
    # same relations in the same order as one pass over the pairs
    poset = {
        "rp2": lambda: face_poset(RP2_FACETS),
        "glued_pair": lambda: glued_pair("1234"),
    }.get(name, lambda: bundled_poset(name))()
    for field in (QQ, PrimeField(2), PrimeField(3)):
        ring = PolyRing(poset, field)
        assert [g.terms for g in ring.generators()] == reference_generators(ring)


def test_rings_on_one_poset_share_the_join_table(monkeypatch):
    # the join table reads each incomparable pair's join set once, through
    # the index-level rule it shares with join_set
    calls = []
    minimal = SimplicialPoset._minimal

    def counting(self, common):
        calls.append(common)
        return minimal(self, common)

    monkeypatch.setattr(SimplicialPoset, "_minimal", counting)
    poset = bundled_poset("tetrahedron_boundary")
    first = PolyRing(poset, QQ)
    assert len(calls) == len(first._rewrite) > 0
    calls.clear()
    second = PolyRing(poset, PrimeField(2))
    assert calls == []
    assert first._rewrite is second._rewrite is poset.join_table()


@pytest.mark.parametrize("name", ["tetrahedron_boundary", "RP2"])
def test_relations_with_one_meet_and_join_share_their_tail(name):
    # the tail t_{x^y} t_z is one tuple per (meet, join) in a ring
    poset = face_poset(RP2_FACETS) if name == "RP2" else bundled_poset(name)
    ring = PolyRing(poset, QQ)
    tails = {}
    for (meet, joins), f in zip(ring._rewrite.values(), ring.generators()):
        mons = list(f.terms)[1:]
        assert len(mons) == len(joins)
        for z, mon in zip(joins, mons):
            first = tails.setdefault((meet, z), mon)
            assert mon is first
    # some (meet, join) serves more than one relation
    assert len(tails) < sum(len(j) for _, j in ring._rewrite.values())


def test_generators_homogeneous():
    for name in ("p1", "tetrahedron_boundary", "double_triangle"):
        ring = make_ring(name)
        for f in ring.generators():
            assert f.multidegree() is not None


RELATION_POSETS = {
    **{name: lambda name=name: bundled_poset(name) for name in ALL_BUNDLED},
    "RP2": lambda: face_poset(RP2_FACETS),
    "torus7": lambda: face_poset(TORUS7_FACETS),
    "glued_pair": lambda: glued_pair("123"),
    "boundary_of_5_simplex": lambda: face_poset(
        ["".join(f) for f in combinations("123456", 5)]
    ),
}


@pytest.mark.parametrize("name", RELATION_POSETS)
def test_relation_terms_list_the_generators(name):
    # against the relations built from the definition; the signs are read
    # over Q, where +1 and -1 differ, and every field carries the same integers
    poset = RELATION_POSETS[name]()
    expected = [
        (gi, tuple(k for k, e in enumerate(mon) for _ in range(e)), int(c))
        for gi, terms in enumerate(reference_generators(PolyRing(poset, QQ)))
        for mon, c in terms.items()
    ]
    for field in (QQ, PrimeField(2), PrimeField(3)):
        ring = PolyRing(poset, field)
        table = ring.relation_terms()
        assert ring.relation_terms() is table
        assert list(table) == expected


@pytest.mark.parametrize("name", RELATION_POSETS)
def test_prime_generators_match_the_reference(name):
    poset = RELATION_POSETS[name]()
    for field in (QQ, PrimeField(2), PrimeField(3)):
        ring = PolyRing(poset, field)
        generators = reference_generators(ring)
        for x in poset.elements:
            killed, reduced = ring.prime_generators(x)
            got = (killed, [f.terms for f in reduced])
            assert got == reference_prime_generators(ring, x, generators)


def test_relation_data_is_small_beside_the_join_table():
    # a ring on the 127-element boundary of the 6-simplex holds its 6,069
    # relations as index terms: one dense exponent tuple per term took
    # about 11 MB
    poset = face_poset(["".join(f) for f in combinations("1234567", 6)])
    poset.join_table()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ring = PolyRing(poset, QQ)
        ring.relation_terms()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ring._rewrite) == 6069
    assert held < 2_000_000


def test_prime_generators_p1(ring_p1):
    killed, reduced = ring_p1.prime_generators("x")
    assert killed == ("z",)
    assert set(reduced) == {ring_p1.parse("t[y1]*t[y2] - t[x]")}
    killed, reduced = ring_p1.prime_generators("z")
    assert killed == ("x",)
    assert set(reduced) == {ring_p1.parse("t[y1]*t[y2] - t[z]")}
    killed, reduced = ring_p1.prime_generators("y1")
    assert killed == ("y2", "x", "z") and reduced == ()
    killed, reduced = ring_p1.prime_generators("y2")
    assert killed == ("y1", "x", "z") and reduced == ()
    killed, reduced = ring_p1.prime_generators("0")
    assert killed == ("y1", "y2", "x", "z") and reduced == ()


def test_face_projection_p1(ring_p1):
    t = ring_p1.variable
    assert ring_p1.face_projection("x", t("x")) == ring_p1.parse("t[y1]*t[y2]")
    assert ring_p1.face_projection("x", t("z")).is_zero()
    assert ring_p1.face_projection("z", t("x")).is_zero()
    assert ring_p1.face_projection("z", t("z")) == ring_p1.parse("t[y1]*t[y2]")


# ---------- straightened variables and ideal elements ----------

def test_tilde_of(ring_p1):
    assert ring_p1.tilde_of("x", "x") == ring_p1.parse("t[x] - t[y1]*t[y2]")
    assert ring_p1.tilde_of("x", "y1") == ring_p1.variable("y1")
    assert ring_p1.tilde_of("x", "z") == ring_p1.variable("z")
    d = ring_p1.tilde_of("x", "x").multidegree()
    assert d == ring_p1.variable_degree("x")


def test_f_U_p1(ring_p1):
    f = ring_p1.f_U("x", ("y1", "y2"))
    assert f == ring_p1.parse("t[x] - t[y1]*t[y2] + t[z]")
    assert ring_p1.is_ideal_member(f)
    assert f.multidegree() == (1, 1)
    with pytest.raises(ValueError):
        ring_p1.f_U("x", ("y1",))


def test_f_U_membership_sweep():
    for name in ("p1", "hollow_triangle", "solid_triangle", "double_triangle"):
        ring = make_ring(name)
        poset = ring.poset
        for x in poset.elements:
            atoms = poset.atoms_below(x)
            for r in range(2, len(atoms) + 1):
                for U in combinations(atoms, r):
                    f = ring.f_U(x, U)
                    assert ring.is_ideal_member(f), (name, x, U)
                    want = tuple(
                        sum(ring.variable_degree(a)[g] for a in U)
                        for g in range(ring.natoms)
                    )
                    assert f.is_zero() or f.multidegree() == want


def test_g_pair_p1(ring_p1):
    g = ring_p1.g_pair("x", ("y1", "y2"), "x", "z")
    assert g == ring_p1.parse("t[x]*t[z]")
    assert ring_p1.is_ideal_member(g)
    assert g.multidegree() == (2, 2)
    with pytest.raises(ValueError):
        ring_p1.g_pair("x", ("y1", "y2"), "z", "x")
    with pytest.raises(ValueError):
        ring_p1.g_pair("x", ("y1", "y2"), "x", "x")


def test_g_pair_membership_sweep():
    for name in ("p1", "double_triangle"):
        ring = make_ring(name)
        poset = ring.poset
        for x in poset.elements:
            atoms = poset.atoms_below(x)
            for r in range(2, len(atoms) + 1):
                for U in combinations(atoms, r):
                    js = poset.join_set(U)
                    unders = [z for z in js if poset.leq(z, x)]
                    if not unders:
                        continue
                    z1 = unders[0]
                    for z2 in js:
                        if z2 == z1:
                            continue
                        g = ring.g_pair(x, U, z1, z2)
                        assert ring.is_ideal_member(g), (name, x, U, z1, z2)


# ---------- straightening ----------

def test_straighten_examples(ring_p1):
    assert ring_p1.straighten(ring_p1.parse("t[y1]*t[y2]")) == ring_p1.parse("t[x] + t[z]")
    assert ring_p1.straighten(ring_p1.parse("t[x]*t[z]")).is_zero()
    chain_mon = ring_p1.parse("3*t[y1]^2*t[x]")
    assert ring_p1.straighten(chain_mon) == chain_mon


def test_straighten_idempotent_linear(ring_p1, rng):
    for _ in range(100):
        f = random_polynomial(ring_p1, rng)
        g = random_polynomial(ring_p1, rng)
        nf = ring_p1.straighten(f)
        assert ring_p1.straighten(nf) == nf
        assert ring_p1.straighten(f + g) == ring_p1.straighten(f) + ring_p1.straighten(g)
        c = ring_p1.field.from_int(rng.randint(1, 5))
        assert ring_p1.straighten(f.scale(c)) == nf.scale(c)


def test_straighten_output_chain_supported(rng):
    for name in ("p1", "solid_triangle", "double_triangle"):
        ring = make_ring(name)
        for _ in range(60):
            nf = ring.straighten(random_polynomial(ring, rng, terms=3, max_exp=2))
            for mon in nf.terms:
                assert ring.is_chain_monomial(mon)


def test_straighten_counts_steps(ring_p1):
    nf, steps = ring_p1.straighten_stats(ring_p1.parse("t[y1]*t[y2]"))
    assert steps == 1 and nf == ring_p1.parse("t[x] + t[z]")
    _, steps0 = ring_p1.straighten_stats(ring_p1.parse("t[x]^3"))
    assert steps0 == 0


def test_straighten_strategy_independent(rng):
    # confluence evidence: two genuinely different rewrite orders agree
    for name in ("p1", "hollow_triangle"):
        ring = make_ring(name)
        for _ in range(1000):
            f = random_polynomial(ring, rng, terms=3, max_vars=3, max_exp=2)
            a = ring.straighten(f, strategy="max-monomial")
            b = ring.straighten(f, strategy="min-monomial")
            assert a == b, (name, ring.format(f))
    # shorter sweeps where join sets have several elements in high rank
    for name in ("solid_triangle", "double_triangle"):
        ring = make_ring(name)
        for _ in range(300):
            f = random_polynomial(ring, rng, terms=2, max_vars=3, max_exp=2)
            assert ring.straighten(f, strategy="max-monomial") == ring.straighten(
                f, strategy="min-monomial"
            )


def test_ideal_member(ring_p1):
    for f in ring_p1.generators():
        assert ring_p1.is_ideal_member(f)
    assert not ring_p1.is_ideal_member(ring_p1.variable("x"))
    assert not ring_p1.is_ideal_member(ring_p1.one())


def test_chain_monomials_not_members():
    for name in ("p1", "hollow_triangle"):
        ring = make_ring(name)
        for k1 in range(ring.nvars):
            for k2 in range(ring.nvars):
                mon = [0] * ring.nvars
                mon[k1] += 1
                mon[k2] += 1
                if ring.is_chain_monomial(tuple(mon)):
                    f = ring.monomial(
                        {ring.variables[i]: e for i, e in enumerate(mon) if e}
                    )
                    assert not ring.is_ideal_member(f)


# ---------- text format ----------

def test_parse_format_roundtrip(ring_p1, rng):
    for _ in range(40):
        f = random_polynomial(ring_p1, rng)
        assert ring_p1.parse(ring_p1.format(f)) == f


def test_parse_fractions_and_powers(ring_p1):
    f = ring_p1.parse("3/2 * t[x]^2 * t[y1] - t[z]")
    assert f.terms == {
        (1, 0, 2, 0): Fraction(3, 2),
        (0, 0, 0, 1): Fraction(-1),
    }
    # unicode minus and leading sign
    assert ring_p1.parse("−t[x]") == -ring_p1.variable("x")
    assert ring_p1.parse("-2") == ring_p1.one().scale(Fraction(-2))


def test_parse_errors(ring_p1):
    with pytest.raises(ValueError):
        ring_p1.parse("t[nope]")
    with pytest.raises(ValueError):
        ring_p1.parse("")
    with pytest.raises(ValueError):
        ring_p1.parse("t[x] +")
    with pytest.raises(Exception):
        ring_p1.parse("q * t[x]")


def test_format_over_prime_field(ring_p1_f2):
    f = ring_p1_f2.parse("t[x] + t[x] + t[y1]")
    assert ring_p1_f2.format(f) == "t[y1]"


def test_poly_json(ring_p1):
    f = ring_p1.parse("t[y1]*t[y2] - t[x]")
    obj = ring_p1.poly_to_json(f)
    assert obj == {
        "terms": [
            {"coeff": "1", "monomial": {"y1": 1, "y2": 1}},
            {"coeff": "-1", "monomial": {"x": 1}},
        ]
    }


# ---------- shared arithmetic across parents ----------

def test_sums_across_rings_raise(ring_p1):
    other = PolyRing(bundled_poset("p1"), QQ)
    f, g = ring_p1.variable("x"), other.variable("x")
    for op in (lambda: f + g, lambda: f - g, lambda: g + f, lambda: g - f):
        with pytest.raises(ValueError):
            op()
    assert f != g and f.terms == g.terms


def test_sums_with_envelope_elements_raise(ring_p1):
    f, e = ring_p1.one(), Envelope.of(ring_p1, "x").unit()
    for op in (lambda: f + e, lambda: f - e, lambda: e + f, lambda: e - f):
        with pytest.raises(ValueError):
            op()
    assert f != e and e != f


def test_polynomials_hash_by_value(ring_p1):
    f = ring_p1.parse("t[y1]*t[y2] - t[x]")
    g = ring_p1.variable("y1") * ring_p1.variable("y2") - ring_p1.variable("x")
    assert f == g and f is not g
    assert len({f, g, f + ring_p1.zero()}) == 1
    assert type(f + g) is type(-f) is type(f.scale(QQ.from_int(2))) is type(f)


# ---------- operands that are not polynomials of the ring ----------

def test_straighten_refuses_an_envelope_element(ring_p1):
    with pytest.raises(ValueError, match="not a polynomial of this ring"):
        ring_p1.straighten(Envelope.of(ring_p1, "x").unit())


def test_embed_base_refuses_an_envelope_element(ring_p1):
    env = Envelope.of(ring_p1, "x")
    with pytest.raises(ValueError, match="not a polynomial of this ring"):
        env.embed_base(env.unit())


def test_act_polynomial_refuses_an_envelope_element(ring_p1):
    env = Envelope.of(ring_p1, "x")
    with pytest.raises(ValueError, match="not a polynomial of this ring"):
        env.act_polynomial(env.unit(), env.unit())


def test_unknown_element_raises_on_a_ring_with_no_variables():
    # with no variable to compare, only the lookup of x itself can fail
    ring = PolyRing(SimplicialPoset(["pt"], []))
    for call in (
        lambda: ring.prime_generators("zz"),
        lambda: ring.face_projection("zz", ring.one()),
    ):
        with pytest.raises(ValueError, match="unknown element 'zz'"):
            call()
