import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from facering import (
    CleanMap,
    CoverData,
    Envelope,
    GradedEndomap,
    StabilizationError,
    bundled_poset,
    chain_map,
    check_clean,
    check_linearity,
    check_roundtrip,
    compose_maps,
    cover_map,
    materialize_tau,
    neumann_inverse,
    nonclean_automorphism,
    rank1_map,
    tau_coefficient,
    tau_map,
    PolyRing,
    SimplicialPoset,
)
from facering import cleanmap
from facering.cleanmap import clean_sweep_size
from facering.scalars import QQ, PrimeField

from helpers import (
    ALL_BUNDLED,
    RP2_FACETS,
    active_linearity_counts,
    face_poset,
    glued_pair,
    make_ring,
    random_envelope_element,
    reference_composite,
    reference_cover_step,
    reference_linearity_sweep,
    reference_tau,
)


@pytest.fixture
def psi(ring_p1):
    return cover_map(ring_p1, "x", "y1")


def _expected_cover_image(env_y1, field, a1, a2, b, c):
    # closed form of the cover map out of the rank-2 envelope: transfer the
    # removed atom's negative exponent into the Z variable, binomially
    out = env_y1.zero()
    for d in range(0, -a2 + 1):
        coeff = field.from_int(comb(b + d, b))
        out = out + env_y1.monomial(
            {"y1": a1 + d},
            {"y2": -(a2 + d), "x": b + d, "z": c},
            coeff=coeff,
        )
    return out


def test_cover_map_closed_form(ring_p1, psi):
    env_x = Envelope.of(ring_p1, "x")
    env_y1 = Envelope.of(ring_p1, "y1")
    for a1, a2 in product(range(-3, 4), repeat=2):
        for b, c in product(range(0, 4), repeat=2):
            m = env_x.monomial({"y1": a1, "y2": a2}, {"x": b, "z": c})
            assert psi(m) == _expected_cover_image(env_y1, ring_p1.field, a1, a2, b, c)


def test_cover_map_unit(ring_p1, psi):
    assert psi(Envelope.of(ring_p1, "x").unit()) == Envelope.of(ring_p1, "y1").unit()


def test_cover_map_specific_value(ring_p1, psi):
    env_x = Envelope.of(ring_p1, "x")
    env_y1 = Envelope.of(ring_p1, "y1")
    got = psi(env_x.monomial({"y2": -1}, {"x": 1}))
    want = env_y1.monomial(inverse={"y2": 1, "x": 1}) + env_y1.monomial(
        {"y1": 1}, {"x": 2}, coeff=ring_p1.field.from_int(2)
    )
    assert got == want


def test_cover_map_not_a_cover(ring_p1):
    # the poset owns the cover rule and its message
    with pytest.raises(ValueError, match="^'x' does not cover '0'$"):
        cover_map(ring_p1, "x", "0")


@pytest.mark.parametrize("atom", ["123", "0"])
def test_rank1_map_needs_a_cover_of_the_bottom(atom):
    # an element covers the bottom exactly when its rank is 1
    ring = PolyRing(bundled_poset("solid_triangle"), QQ)
    with pytest.raises(ValueError, match=f"^{atom!r} does not cover '0'$"):
        rank1_map(ring, atom)


def test_rank1_map(ring_p1):
    m = rank1_map(ring_p1, "y1")
    env_y = Envelope.of(ring_p1, "y1")
    env_0 = Envelope.of(ring_p1, "0")
    assert m(env_y.unit()) == env_0.unit()
    assert m(env_y.monomial({"y1": -2})) == env_0.monomial(inverse={"y1": 2})
    assert m(env_y.monomial({"y1": 1})).is_zero()
    assert m(env_y.monomial({"y1": -1}, {"z": 2})) == env_0.monomial(
        inverse={"y1": 1, "z": 2}
    )
    with pytest.raises(ValueError):
        rank1_map(ring_p1, "x")


def test_identity_chain(ring_p1):
    ident = chain_map(ring_p1, ("x",))
    env = Envelope.of(ring_p1, "x")
    e = env.monomial({"y1": -1, "y2": 2}, {"z": 1})
    assert ident(e) == e


def test_chain_requires_saturation(ring_p1):
    with pytest.raises(ValueError):
        chain_map(ring_p1, ("x", "0"))


def test_path_independence_p1(ring_p1):
    env = Envelope.of(ring_p1, "x")
    via_y1 = chain_map(ring_p1, ("x", "y1", "0"))
    via_y2 = chain_map(ring_p1, ("x", "y2", "0"))
    fld = ring_p1.field
    count = 0
    # both inverse variables at x have weight 2, so depth 16 holds the box
    # of inverse exponents up to 4
    for mon in env.monomial_box(4, depth_bound=16):
        e = env.element({mon: fld.one})
        assert via_y1(e) == via_y2(e)
        count += 1
    assert count == 9 * 9 * 45


def test_path_independence_rank3():
    ring = make_ring("tetrahedron_boundary")
    env = Envelope.of(ring, "123")
    chains = ring.poset.saturated_chains("123", "0")
    assert len(chains) == 6
    maps = [chain_map(ring, ch) for ch in chains]
    fld = ring.field
    for mon in env.monomial_box(2, depth_bound=2):
        e = env.element({mon: fld.one})
        images = [m(e) for m in maps]
        assert all(img == images[0] for img in images[1:])


def test_check_clean_cover_maps():
    for name in ("p1", "tetrahedron_boundary"):
        ring = make_ring(name)
        for u, l in ring.poset.covers:
            rep = check_clean(cover_map(ring, u, l), depth_bound=4)
            assert rep.passed, (name, u, l)
            assert rep.to_json()["box"] == {"depth": 4}


def test_rank1_maps_trivially_clean(ring_p1):
    rep = check_clean(rank1_map(ring_p1, "y1"), depth_bound=5)
    # no degree-zero positive-depth monomials exist at rank one
    assert rep.passed and rep.checked == 0


def test_composites_clean(ring_p1):
    rep = check_clean(chain_map(ring_p1, ("x", "y1", "0")), depth_bound=4)
    assert rep.passed


def test_clean_of_composite_factors(ring_p1):
    # outer and composite clean with outer nonzero forces the inner one clean
    inner = cover_map(ring_p1, "x", "y1")
    outer = rank1_map(ring_p1, "y1")
    assert check_clean(outer, 4).passed
    assert check_clean(compose_maps(outer, inner), 4).passed
    assert check_clean(inner, 4).passed


def test_all_chain_composites_preserve_unit():
    # nonzero normalized maps never kill the unit, whatever the chain
    for name in ("p1", "solid_triangle", "double_triangle"):
        ring = make_ring(name)
        poset = ring.poset
        for x in poset.elements:
            for z in poset.elements:
                if not poset.leq(z, x):
                    continue
                for ch in poset.saturated_chains(x, z):
                    m = chain_map(ring, ch)
                    assert m(m.source_env.unit()) == m.target_env.unit(), ch


def test_unit_pairing_detects_unit(ring_p1, psi):
    # the target-unit coefficient is nonzero exactly on the source unit
    env = Envelope.of(ring_p1, "x")
    tgt = Envelope.of(ring_p1, "y1")
    fld = ring_p1.field
    zero_deg = (0,) * ring_p1.natoms
    for mon in env.monomials_of_degree(zero_deg, depth_max=4):
        img = psi(env.element({mon: fld.one}))
        hit = bool(img.terms.get(tgt.unit_mon))
        assert hit == (mon == env.unit_mon)


def test_laurent_linearity_of_cover_maps(ring_p1, psi, rng):
    # commutes with Laurent units in the atoms kept by the cover
    env = Envelope.of(ring_p1, "x")
    tgt = Envelope.of(ring_p1, "y1")
    for _ in range(50):
        e = random_envelope_element(env, rng)
        shifted = env.act_laurent((1, 0), e)
        assert psi(shifted) == tgt.act_laurent((1,), psi(e))
        back = env.act_laurent((-1, 0), e)
        assert psi(back) == tgt.act_laurent((-1,), psi(e))


def test_check_linearity(ring_p1, psi):
    rep = check_linearity(psi, laurent_bound=4, depth_bound=16)
    assert rep.passed and rep.checked == 9 * 9 * 45


def test_check_linearity_f2():
    ring = PolyRing(bundled_poset("p1"), PrimeField(2))
    rep = check_linearity(cover_map(ring, "x", "y1"), laurent_bound=4, depth_bound=16)
    assert rep.passed


def test_check_linearity_rank3():
    for name, field in (("tetrahedron_boundary", QQ), ("double_triangle", PrimeField(3))):
        ring = PolyRing(bundled_poset(name), field)
        for u, l in ring.poset.covers:
            if ring.poset.rank_of(u) < 3:
                continue
            rep = check_linearity(cover_map(ring, u, l), laurent_bound=1, depth_bound=2)
            assert rep.passed, (name, u, l)


def test_nonclean_automorphism(ring_p1):
    sigma = nonclean_automorphism(ring_p1, "x", ring_p1.field.one)
    env = Envelope.of(ring_p1, "x")
    assert sigma(env.unit()) == env.unit()
    got = sigma(env.monomial({"y1": 1, "y2": 1}, {"x": 1}))
    assert got == env.monomial({"y1": 1, "y2": 1}, {"x": 1}) + env.unit()
    with pytest.raises(ValueError):
        nonclean_automorphism(ring_p1, "y1", ring_p1.field.one)


@pytest.mark.parametrize("field, lam", [(PrimeField(2), 1), (QQ, 0.5)], ids=["F2-int", "Q-float"])
def test_nonclean_automorphism_checks_lam_when_built(field, lam):
    # over F2 the int 1 raised AttributeError on the first t[x]^-1; over Q
    # 0.5 left float coefficients
    ring = PolyRing(bundled_poset("p1"), field)
    with pytest.raises(ValueError, match=f"not a scalar of {field!r}"):
        nonclean_automorphism(ring, "x", lam)
    sigma = nonclean_automorphism(ring, "x", field.one)
    env = Envelope.of(ring, "x")
    assert sigma(env.monomial(inverse={"x": 1})) == env.monomial(inverse={"x": 1}) + env.monomial(
        {"y1": -1, "y2": -1}
    )


def test_maps_reject_elements_of_other_envelopes(ring_p1):
    # CleanMap and GradedEndomap read the rule from Envelope._terms
    maps = [
        cover_map(ring_p1, "x", "y1"),
        chain_map(ring_p1, ("x", "y1", "0")),
        nonclean_automorphism(ring_p1, "x", ring_p1.field.one),
        GradedEndomap(Envelope.of(ring_p1, "x"), lambda e: e),
    ]
    foreign = [Envelope.of(ring_p1, "z").unit(), Envelope.of(PolyRing(ring_p1.poset), "x").unit()]
    for m in maps:
        for e in foreign:
            with pytest.raises(ValueError, match="element lives in a different envelope"):
                m(e)


def test_nonclean_automorphism_is_linear(ring_p1):
    sigma = nonclean_automorphism(ring_p1, "x", ring_p1.field.from_int(3))
    rep = check_linearity(sigma, laurent_bound=2, depth_bound=3)
    assert rep.passed


def test_composite_with_sigma_not_clean(ring_p1, psi):
    sigma = nonclean_automorphism(ring_p1, "x", ring_p1.field.one)
    phi = compose_maps(psi, sigma)
    rep = check_clean(phi, depth_bound=4)
    assert not rep.passed
    assert rep.witness["input"]["terms"] == [
        {"laurent": {"y1": 1, "y2": 1}, "inverse": {"x": 1}, "coeff": "1"}
    ]


def test_tau_of_clean_map_is_identity(ring_p1, psi):
    env = Envelope.of(ring_p1, "x")
    tau = tau_map(psi)
    fld = ring_p1.field
    for mon in env.monomial_box(2, depth_bound=3):
        e = env.element({mon: fld.one})
        assert tau(e) == e


def test_tau_degree_mismatch_coefficient_zero(ring_p1, psi):
    env = Envelope.of(ring_p1, "x")
    alpha = env.monomial_key({"y1": 1}, {})
    beta = env.monomial_key({"y2": 1}, {})
    assert not tau_coefficient(psi, alpha, beta)


def test_tau_roundtrip(ring_p1, psi):
    env = Envelope.of(ring_p1, "x")
    fld = ring_p1.field
    sigma = nonclean_automorphism(ring_p1, "x", fld.one)
    phi = compose_maps(psi, sigma)
    box = list(env.monomial_box(3, depth_bound=3))
    tau = materialize_tau(phi, box)
    for mon in box:
        e = env.element({mon: fld.one})
        assert compose_maps(psi, tau)(e) == phi(e)
        assert tau(e) == sigma(e)
    tau_inv = neumann_inverse(tau)
    for mon in box:
        e = env.element({mon: fld.one})
        assert tau(tau_inv(e)) == e
    assert check_clean(compose_maps(phi, tau_inv), depth_bound=4).passed


def test_roundtrip_witness_is_first_disagreement(ring_p1, psi, monkeypatch):
    # a conjugate skewed at positive depth off degree zero still repairs phi
    # (the clean sweeps see degree zero only), but psi after it differs from
    # phi by psi there: the sweep must stop at the first such box monomial
    # that psi keeps, having counted the ones before it
    env = Envelope.of(ring_p1, "x")
    one = ring_p1.field.one
    zero = (0,) * ring_p1.natoms
    real = cleanmap.materialize_tau

    def skew(mon):
        return env.depth(mon) > 0 and env.degree(mon) != zero

    def skewed(phi, mons):
        tau = real(phi, mons)

        def fn(elem):
            off = {m: c for m, c in elem.terms.items() if skew(m)}
            return tau(elem) + env.element(off)

        return GradedEndomap(env, fn)

    assert check_roundtrip(ring_p1, "x", "y1", 2, 3).passed
    box = list(env.monomial_box(2, 3))
    elems = [env.element({mon: one}) for mon in box]
    first = next(k for k, e in enumerate(elems) if skew(box[k]) and psi(e))
    monkeypatch.setattr(cleanmap, "materialize_tau", skewed)
    rep = check_roundtrip(ring_p1, "x", "y1", 2, 3)
    assert not rep.passed and rep.checked == first > 0
    assert rep.witness == {"input": env.element_to_json(elems[first])}


_ROUNDTRIP_FAKES = {
    # phi becomes psi, which is clean
    "nonclean_automorphism": lambda ring, x, lam: chain_map(ring, (x,)),
    # phi after the "inverse" stays phi, which is not clean
    "neumann_inverse": lambda endo: GradedEndomap(endo.env, lambda e: e),
}


@pytest.mark.parametrize("name", sorted(_ROUNDTRIP_FAKES))
def test_roundtrip_needs_both_clean_verdicts(ring_p1, monkeypatch, name):
    # psi after tau still equals phi on the whole box, so only the clean
    # verdict can fail the report
    monkeypatch.setattr(cleanmap, name, _ROUNDTRIP_FAKES[name])
    rep = check_roundtrip(ring_p1, "x", "y1", 2, 3)
    assert not rep.passed and rep.witness is None
    assert rep.checked == Envelope.of(ring_p1, "x").box_size(2, 3)


@pytest.mark.parametrize("field", (QQ, PrimeField(3)), ids=("Q", "F3"))
@pytest.mark.parametrize("name", ("tetrahedron_boundary", "double_triangle"))
def test_tau_matches_reference(name, field):
    # on the roundtrip box at the first element of rank 2 and at one of top
    # rank, with a depth that reaches the perturbation at both
    ring = PolyRing(bundled_poset(name), field)
    poset = ring.poset
    for rank in (2, poset.max_rank):
        x = next(e for e in poset.elements if poset.rank_of(e) == rank)
        env = Envelope.of(ring, x)
        psi = cover_map(ring, x, poset.lower_covers(x)[0])
        phi = compose_maps(psi, nonclean_automorphism(ring, x, field.one))
        tau = tau_map(phi)
        for mon in env.monomial_box(1, 3):
            got = tau(env.element({mon: field.one}))
            assert got == env.element(reference_tau(phi, mon)), (name, x, mon)


def test_tau_requires_unit_survival(ring_p1, psi):
    env = Envelope.of(ring_p1, "x")

    def kill_unit(e):
        out = dict(e.terms)
        out.pop(env.unit_mon, None)
        return env.element(out)

    phi = compose_maps(psi, GradedEndomap(env, kill_unit, "unit killer"))
    with pytest.raises(ValueError, match="unit"):
        tau_map(phi)


def test_neumann_inverts_scalar_multiples(ring_p1):
    env = Envelope.of(ring_p1, "x")
    two = ring_p1.field.from_int(2)
    doubling = GradedEndomap(env, lambda e: e.scale(two), "2id")
    inv = neumann_inverse(doubling)
    e = env.monomial({"y1": 1}, {"x": 1})
    assert doubling(inv(e)) == e


def test_neumann_reports_non_stabilization(ring_p1):
    env = Envelope.of(ring_p1, "x")
    mu = env.monomial_key({"y1": 1, "y2": 1}, {"x": 1})
    fld = ring_p1.field

    def idempotent_bump(e):
        c = e.terms.get(mu)
        out = e
        if c:
            out = e + env.element({mu: c})
        return out

    endo = GradedEndomap(env, idempotent_bump, "id + projection")
    inv = neumann_inverse(endo)
    with pytest.raises(StabilizationError):
        inv(env.element({mu: fld.one}))


def test_check_clean_counts_monomials_before_the_failure(ring_p1, psi):
    # the witness is the second degree-zero monomial; only the first passed
    sigma = nonclean_automorphism(ring_p1, "x", ring_p1.field.one)
    rep = check_clean(compose_maps(psi, sigma), depth_bound=4)
    assert not rep.passed and rep.checked == 1


def test_check_linearity_degree_witness(ring_p1):
    env = Envelope.of(ring_p1, "x")
    times_y1 = GradedEndomap(env, lambda e: env.act_variable("y1", e), "times t[y1]")
    rep = check_linearity(times_y1, laurent_bound=1, depth_bound=1)
    assert not rep.passed and rep.checked == 0
    assert rep.witness["reason"] == "degree not preserved"
    assert rep.witness["input"]["terms"] == [
        {"laurent": {"y1": -1, "y2": -1}, "inverse": {}, "coeff": "1"}
    ]
    assert rep.witness["image"]["terms"] == [
        {"laurent": {"y2": -1}, "inverse": {}, "coeff": "1"}
    ]


def test_check_linearity_commutation_witness(ring_p1):
    # t[x] sends t[y1]^-1 t[y2]^-1 to the unit, which the projection keeps;
    # the six box monomials before it commute with every variable
    env = Envelope.of(ring_p1, "x")

    def onto_unit(e):
        c = e.terms.get(env.unit_mon)
        return env.element({env.unit_mon: c} if c else {})

    rep = check_linearity(
        GradedEndomap(env, onto_unit, "unit projection"),
        laurent_bound=2,
        depth_bound=2,
    )
    assert not rep.passed and rep.checked == 6
    assert rep.witness == {
        "reason": "action of t[x] does not commute",
        "input": {
            "ambient": "x",
            "terms": [{"laurent": {"y1": -1, "y2": -1}, "inverse": {}, "coeff": "1"}],
        },
    }


def test_tau_coefficient_zero_above_alpha(ring_p1, psi):
    # beta's inverse part exceeds alpha's, so phi is never applied
    env = Envelope.of(ring_p1, "x")
    calls = []
    counted = compose_maps(
        psi, GradedEndomap(env, lambda e: calls.append(e) or e, "counted")
    )
    alpha = env.monomial_key({"y1": 1, "y2": 1}, {"z": 1})
    beta = env.monomial_key({"y1": 1, "y2": 1}, {"x": 1})
    assert tau_coefficient(counted, alpha, beta) == ring_p1.field.zero
    assert calls == []


def test_tau_applies_phi_once_per_degree_zero_monomial():
    ring = make_ring("tetrahedron_boundary")
    env = Envelope.of(ring, "123")
    psi = cover_map(ring, "123", ring.poset.lower_covers("123")[0])
    phi = compose_maps(psi, nonclean_automorphism(ring, "123", ring.field.one))
    calls = []
    counted = compose_maps(
        phi, GradedEndomap(env, lambda e: calls.append(e) or e, "counted")
    )
    box = list(env.monomial_box(2, 4))
    tau = materialize_tau(counted, box)
    for mon in box:
        e = env.element({mon: ring.field.one})
        assert compose_maps(psi, tau)(e) == phi(e)
    assert len(calls) <= 1 + len(env.monomials_of_degree((0,) * 4, 4))


def _chain_maps(ring):
    """Every cover map and saturated-chain composite of the ring's poset."""
    poset = ring.poset
    for x in poset.elements:
        for z in poset.elements:
            if z != x and poset.leq(z, x):
                for ch in poset.saturated_chains(x, z):
                    yield chain_map(ring, ch)


def _linearity_matches_reference(m, lb, db):
    rep = check_linearity(m, laurent_bound=lb, depth_bound=db)
    want = reference_linearity_sweep(m, lb, db)
    assert (rep.passed, rep.checked, rep.witness) == want, (m, lb, db)
    return rep


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3)), ids=("Q", "F2", "F3"))
@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2",))
def test_active_linearity_matches_full_box(name, field):
    # the sweep over the active coordinates gives the full box's verdict,
    # count and witness on every cover and chain composite; RP^2's full box
    # at (2, 2) alone takes a minute per field
    poset = face_poset(RP2_FACETS) if name == "rp2" else bundled_poset(name)
    ring = PolyRing(poset, field)
    for lb, db in ((1, 1),) if name == "rp2" else ((1, 1), (2, 2)):
        for m in _chain_maps(ring):
            assert _linearity_matches_reference(m, lb, db).passed


def test_linearity_matches_full_box_on_failing_maps():
    # maps that take the full-box sweep: a linear but not clean composite,
    # and multiplication by a variable, which moves degrees
    for field in (QQ, PrimeField(2), PrimeField(3)):
        ring = PolyRing(bundled_poset("tetrahedron_boundary"), field)
        env = Envelope.of(ring, "123")
        psi = cover_map(ring, "123", "12")
        phi = compose_maps(psi, nonclean_automorphism(ring, "123", field.one))
        times = GradedEndomap(env, lambda e: env.act_variable("1", e), "times t[1]")
        for lb, db in ((1, 1), (2, 2)):
            assert _linearity_matches_reference(phi, lb, db).passed
            assert not _linearity_matches_reference(times, lb, db).passed


class _BrokenAtOne(CleanMap):
    """A composite that drops every input monomial whose inverse exponent at
    one passive coordinate is one."""

    def __init__(self, ring, chain, j):
        super().__init__(ring, chain)
        self.j = j

    def __call__(self, elem):
        kept = {m: c for m, c in elem.terms.items() if m[1][self.j] != 1}
        return super().__call__(self.source_env.element(kept))


def test_active_linearity_probes_passive_coordinates_at_one():
    # the break shows only where a passive coordinate is positive, so the
    # sweep must lift each variable's own passive coordinate to one
    ring = make_ring("tetrahedron_boundary")
    for chain in (("123", "12"), ("123", "12", "1", "0"), ("12", "1")):
        env = Envelope.of(ring, chain[0])
        _, ipos = env.active_positions(chain[-1])
        for j in range(env.ninv):
            if j in ipos or env._iweight[j] > 2:
                continue
            rep = _linearity_matches_reference(_BrokenAtOne(ring, chain, j), 1, 2)
            assert not rep.passed, (chain, j)


def _named_poset(name):
    if name == "rp2":
        return face_poset(RP2_FACETS)
    if name == "glued_pair":
        return glued_pair("123")
    return bundled_poset(name)


def _maps_with_identities(ring):
    """Every chain map of ``_chain_maps`` and the identity chain (x,) at
    each element."""
    yield from _chain_maps(ring)
    for x in ring.poset.elements:
        yield chain_map(ring, (x,))


# (Laurent bound, depth) of the box each poset is swept on: bound 3 reaches
# the tables of budgets 0-3, and solid_triangle's and glued_pair's chains of
# three covers; the larger posets take bound 1
_COMPOSITE_BOX = {"tetrahedron_boundary": (1, 2), "rp2": (1, 1)}


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3)), ids=("Q", "F2", "F3"))
@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2", "glued_pair"))
def test_composite_matches_stepwise_reference(name, field):
    # the one pass from the table gives the image of the step-by-step
    # expansion, on the full box and on random elements of several terms
    ring = PolyRing(_named_poset(name), field)
    lb, depth = _COMPOSITE_BOX.get(name, (3, 2))
    for m in _maps_with_identities(ring):
        env = m.source_env
        for mon in env.monomial_box(lb, depth):
            e = env.element({mon: field.one})
            assert m(e) == reference_composite(m, e), (m, mon)
        # the first draw is the helper's default (Laurent range [-2, 2]);
        # the second reaches the box's bound where that is wider
        rng = random.Random(len(m.chain))
        for terms, bound in ((4, 2), (8, max(lb, 2))):
            e = random_envelope_element(env, rng, terms=terms, laurent_bound=bound)
            assert m(e) == reference_composite(m, e), m


def _cancelling_element(m, mons):
    """An element of two of the monomials whose images share a term, with
    coefficients that cancel it, and that term; None if no two share one."""
    env = m.source_env
    one = env.ring.field.one
    seen = {}
    for mon in mons:
        for key, c in m(env.element({mon: one})).terms.items():
            if key in seen:
                first, c0 = seen[key]
                return env.element({first: c, mon: -c0}), key
            seen[key] = (mon, c)
    return None


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3)), ids=("Q", "F2", "F3"))
@pytest.mark.parametrize("name", ("p1", "solid_triangle", "double_triangle"))
def test_composite_images_cancel_across_terms(name, field):
    # two input monomials meeting at one target term: the pass must add
    # their contributions there before it drops the zero
    ring = make_ring(name, field)
    cancelled = 0
    for m in _chain_maps(ring):
        found = _cancelling_element(m, m.source_env.monomial_box(2, 2))
        if found is None:
            continue
        e, key = found
        img = m(e)
        assert key not in img.terms, m
        assert img == reference_composite(m, e), m
        cancelled += 1
    assert cancelled


def test_cover_image_drops_even_binomials_over_f2():
    # x > y1 on p1 sends t[y2]^-1 (x) t[x]^-1 to t[y2]^-1 t[x]^-1 plus
    # C(2, 1) = 2 times t[y1] (x) t[x]^-2, so over F2 one term is left
    f2 = PrimeField(2)
    ring = make_ring("p1", f2)
    env, tgt = Envelope.of(ring, "x"), Envelope.of(ring, "y1")
    e = env.monomial({"y2": -1}, {"x": 1})
    for chain in (("x", "y1"), ("x", "y1", "0")):
        m = chain_map(ring, chain)
        assert m(e) == reference_composite(m, e)
        assert len(m(e).terms) == 1
    assert cover_map(ring, "x", "y1")(e) == tgt.monomial(inverse={"y2": 1, "x": 1})


@pytest.mark.parametrize("name", ("p1", "solid_triangle", "tetrahedron_boundary"))
def test_f2_images_are_rational_images_mod_two(name):
    # every coefficient is an integer count, so the F2 image is the Q image
    # reduced mod 2 with its even terms dropped; some are even here
    f2 = PrimeField(2)
    ring_q, ring_2 = make_ring(name), make_ring(name, f2)
    dropped = 0
    for mq, m2 in zip(_chain_maps(ring_q), _chain_maps(ring_2)):
        assert mq.chain == m2.chain
        for mon in mq.source_env.monomial_box(2, 2):
            img_q = mq(mq.source_env.element({mon: QQ.one}))
            img_2 = m2(m2.source_env.element({mon: f2.one}))
            odd = {k: f2.one for k, c in img_q.terms.items() if c.numerator % 2}
            assert img_2.terms == odd, (mq, mon)
            dropped += len(img_q.terms) - len(odd)
    assert dropped


@settings(max_examples=60, deadline=None)
@given(
    facets=st.lists(
        st.sets(st.sampled_from("123456"), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    ),
    field=st.sampled_from((QQ, PrimeField(2))),
    data=st.data(),
)
def test_random_chain_images_match_reference(facets, field, data):
    # a random saturated chain of a random face poset, on a random element
    # of its source with Laurent exponents in [-3, 1]; the draws shrink
    # towards tops and bottoms, so towards long chains
    ring = PolyRing(face_poset(["".join(sorted(f)) for f in facets]), field)
    poset = ring.poset
    by_rank = sorted(poset.elements, key=poset.rank_of)
    x = data.draw(st.sampled_from(by_rank[::-1]))
    z = data.draw(st.sampled_from([w for w in by_rank if poset.leq(w, x)]))
    chain = data.draw(st.sampled_from(poset.saturated_chains(x, z)))
    m = chain_map(ring, chain)
    env = m.source_env
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    e = random_envelope_element(env, rng, terms=5, laurent_bound=2, depth_max=4)
    e = env.act_laurent((-1,) * env.natoms, e)
    assert m(e) == reference_composite(m, e)


def test_chains_with_unknown_elements_raise_value_error():
    ring = make_ring("tetrahedron_boundary")
    for call in (
        lambda: chain_map(ring, ("123", "zz")),
        lambda: chain_map(ring, ("zz",)),
        lambda: cover_map(ring, "123", "zz"),
        lambda: cover_map(ring, "zz", "12"),
        lambda: CoverData(ring, "zz", "1"),
        lambda: CoverData(ring, "12", "zz"),
    ):
        with pytest.raises(ValueError, match="unknown element 'zz'"):
            call()


def test_cover_data_rejects_an_interval_that_is_not_boolean():
    # below x the element d covers the atom a alone, so the interval [0, x]
    # is not boolean: d is below x but not below ab, yet misses the removed
    # atom c
    poset = SimplicialPoset(
        ["0", "a", "b", "c", "ab", "ac", "bc", "d", "x"],
        [
            ["a", "0"], ["b", "0"], ["c", "0"],
            ["ab", "a"], ["ab", "b"], ["ac", "a"], ["ac", "c"], ["bc", "b"], ["bc", "c"],
            ["d", "a"], ["x", "ab"], ["x", "ac"], ["x", "bc"], ["x", "d"],
        ],
    )
    with pytest.raises(ValueError, match="'d' breaks the boolean interval below 'x'"):
        CoverData(PolyRing(poset), "x", "ab")


# every public call that takes an element or atom name, with the name "zz",
# which tetrahedron_boundary lacks; each lookup goes through the poset's or
# the ring's name table, so none leaks a bare KeyError
UNKNOWN_NAME_CALLS = {
    "leq": lambda r: r.poset.leq("zz", "1"),
    "rank_of": lambda r: r.poset.rank_of("zz"),
    "lower_covers": lambda r: r.poset.lower_covers("zz"),
    "is_cover": lambda r: r.poset.is_cover("zz", "1"),
    "atoms_below": lambda r: r.poset.atoms_below("zz"),
    "atom_set": lambda r: r.poset.atom_set("zz"),
    "join_set": lambda r: r.poset.join_set(["1", "zz"]),
    "meet": lambda r: r.poset.meet("1", "zz"),
    "removed_atom": lambda r: r.poset.removed_atom("zz", "1"),
    "incidence_sign": lambda r: r.poset.incidence_sign("zz", "1"),
    "saturated_chains": lambda r: r.poset.saturated_chains("zz", "1"),
    "tilde_of": lambda r: r.tilde_of("zz", "1"),
    "f_U": lambda r: r.f_U("zz", ["1", "2"]),
    "face_projection_constant": lambda r: r.face_projection("zz", r.one()),
    "face_projection": lambda r: r.face_projection("zz", r.variable("12")),
    "atom_index": lambda r: r.atom_index("zz"),
    "active_positions": lambda r: Envelope.of(r, "123").active_positions("zz"),
    "monomial_box": lambda r: Envelope.of(r, "123").monomial_box(1, 0, "zz"),
    "box_size": lambda r: Envelope.of(r, "123").box_size(1, 0, "zz"),
    "rank1_map": lambda r: rank1_map(r, "zz"),
    "nonclean_automorphism": lambda r: nonclean_automorphism(r, "zz", r.field.one),
    "bundled_poset": lambda r: bundled_poset("zz"),
}


@pytest.mark.parametrize("call", UNKNOWN_NAME_CALLS.values(), ids=UNKNOWN_NAME_CALLS)
def test_unknown_names_raise_value_error(call):
    ring = make_ring("tetrahedron_boundary")
    with pytest.raises(ValueError, match="^(unknown element|unknown atom|no bundled poset named) 'zz'$"):
        call(ring)


def test_linearity_of_every_cover_of_bd_simplex5(monkeypatch):
    # the active sweep makes 1 + (number of variables) map calls per active
    # monomial and 2 per lifted one: 137,124 calls here, against 17.8 M for
    # the full box
    ring = PolyRing(face_poset(["".join(f) for f in combinations("123456", 5)]))
    calls = []
    inner = CleanMap.__call__

    def counted(self, elem):
        calls.append(None)
        return inner(self, elem)

    monkeypatch.setattr(CleanMap, "__call__", counted)
    nvar = len(ring.variables)
    bound = 0
    for u, l in ring.poset.covers:
        env = Envelope.of(ring, u)
        rep = check_linearity(cover_map(ring, u, l), laurent_bound=1, depth_bound=2)
        assert rep.passed and rep.checked == env.box_size(1, 2), (u, l)
        active, lifted = active_linearity_counts(env, l, 1, 2)
        bound += (1 + nvar) * active + 2 * lifted
    assert len(calls) <= bound < 200_000


def _cover_step_terms(cd, mon):
    out = {}
    for tl, ti, k in cd.apply_monomial(*mon):
        out[(tl, ti)] = out.get((tl, ti), 0) + k
    return out


def _random_source_monomials(env, rng, count):
    return [
        (
            tuple(rng.randint(-3, 1) for _ in range(env.natoms)),
            tuple(rng.randint(0, 2) for _ in range(env.ninv)),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2",))
def test_cover_step_matches_reference(name):
    # every cover's expansion, term by term, against one built from element
    # names; RP^2 on 200 seeded monomials per cover instead of the box
    poset = face_poset(RP2_FACETS) if name == "rp2" else bundled_poset(name)
    ring = PolyRing(poset)
    rng = random.Random(7)
    for u, l in poset.covers:
        cd = CoverData(ring, u, l)
        if name == "rp2":
            mons = _random_source_monomials(cd.source, rng, 200)
        else:
            mons = cd.source.monomial_box(2, 2)
        for mon in mons:
            want = reference_cover_step(ring, u, l, mon)
            assert _cover_step_terms(cd, mon) == want, (u, l, mon)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_cover_step_reference_catches_a_shifted_removed_atom(name):
    # a step that writes the removed atom's exponent one place off
    ring = make_ring(name)
    for u, l in ring.poset.covers:
        cd = CoverData(ring, u, l)
        cd.r_tgt += -1 if cd.r_tgt else 1
        assert any(
            _cover_step_terms(cd, mon) != reference_cover_step(ring, u, l, mon)
            for mon in cd.source.monomial_box(2, 2)
        ), (u, l)


@pytest.mark.parametrize("name", ALL_BUNDLED + ("rp2",))
def test_clean_sweep_size_counts_the_sweep(name):
    poset = face_poset(RP2_FACETS) if name == "rp2" else bundled_poset(name)
    ring = PolyRing(poset)
    zero = (0,) * ring.natoms
    for x in poset.elements:
        env = Envelope.of(ring, x)
        for depth in range(5):
            want = len(env.monomials_of_degree(zero, depth, depth_min=1))
            assert clean_sweep_size(env, depth) == want, (x, depth)


def test_roundtrip_refuses_a_box_shallower_than_the_perturbation():
    # phi perturbs through t[123]^-1, of depth 3: at depth 2 it looks clean,
    # so a sweep there could only fail, with no witness
    ring = make_ring("tetrahedron_boundary")
    with pytest.raises(ValueError, match="needs depth_bound 3 or more"):
        check_roundtrip(ring, "123", "12", 1, 2)
    rep = check_roundtrip(ring, "123", "12", 1, 3)
    assert rep.passed and rep.checked == Envelope.of(ring, "123").box_size(1, 3)
