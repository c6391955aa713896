"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (no tolerances); the time limits are part of
the criteria and are asserted.

The "standard box" used for chain comparisons is: Laurent exponents in
[-2, 2] and inverse parts of depth at most 2.
"""

import random
import time
from itertools import product
from math import comb

from facering import (
    Envelope,
    PolyRing,
    build_gamma,
    build_scalar_complex,
    bundled_poset,
    chain_map,
    check_clean,
    check_roundtrip,
    cohomology_dims_at,
    compose_maps,
    cover_map,
    nonclean_automorphism,
    simplicial_oracle,
    verify_dd_zero,
)
from facering.scalars import QQ, PrimeField

from helpers import (
    ALL_BUNDLED,
    COMPLEX_BUNDLED,
    random_envelope_element,
    random_polynomial,
)

STD_LAURENT = 2
STD_DEPTH = 2


class _Timer:
    def __init__(self, number, limit, label):
        self.number = number
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[criterion {self.number:02d}] {status} "
            f"({elapsed:.2f}s / limit {self.limit}s) {self.label}"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_running_example():
    with _Timer(1, 1.0, "running example: generators, degrees, graded primes"):
        ring = PolyRing(bundled_poset("p1"), QQ)
        assert set(ring.generators()) == {
            ring.parse("t[y1]*t[y2] - t[x] - t[z]"),
            ring.parse("t[x]*t[z]"),
        }
        assert [ring.variable_degree(z) for z in ring.variables] == [
            (1, 0),
            (0, 1),
            (1, 1),
            (1, 1),
        ]
        expected_primes = {
            "0": (("y1", "y2", "x", "z"), set()),
            "y1": (("y2", "x", "z"), set()),
            "y2": (("y1", "x", "z"), set()),
            "x": (("z",), {ring.parse("t[y1]*t[y2] - t[x]")}),
            "z": (("x",), {ring.parse("t[y1]*t[y2] - t[z]")}),
        }
        for x, (killed, reduced) in expected_primes.items():
            got_killed, got_reduced = ring.prime_generators(x)
            assert got_killed == killed, x
            assert set(got_reduced) == reduced, x


def test_criterion_02_envelope_action_identities():
    with _Timer(2, 5.0, "envelope action identities on the exponent box"):
        ring = PolyRing(bundled_poset("p1"), QQ)
        env = Envelope.of(ring, "x")
        for a, b in product(range(-3, 4), repeat=2):
            for c, d in product(range(0, 4), repeat=2):
                m = env.monomial({"y1": a, "y2": b}, {"x": c, "z": d})
                want = env.monomial({"y1": a + 1, "y2": b + 1}, {"x": c, "z": d})
                if c >= 1:
                    want = want + env.monomial(
                        {"y1": a, "y2": b}, {"x": c - 1, "z": d}
                    )
                assert env.act_variable("x", m) == want
                want = (
                    env.monomial({"y1": a, "y2": b}, {"x": c, "z": d - 1})
                    if d >= 1
                    else env.zero()
                )
                assert env.act_variable("z", m) == want
                assert env.act_variable("y1", m) == env.monomial(
                    {"y1": a + 1, "y2": b}, {"x": c, "z": d}
                )
                assert env.act_variable("y2", m) == env.monomial(
                    {"y1": a, "y2": b + 1}, {"x": c, "z": d}
                )


def test_criterion_03_module_axioms():
    with _Timer(3, 60.0, "module axioms on 1000 random triples per poset and field"):
        for name in ALL_BUNDLED:
            poset = bundled_poset(name)
            for field in (QQ, PrimeField(2)):
                ring = PolyRing(poset, field)
                rng = random.Random(f"axioms-{name}-{field.name}")
                elements = poset.elements
                for k in range(1000):
                    x = elements[k % len(elements)]
                    env = Envelope.of(ring, x)
                    f = random_polynomial(ring, rng, terms=2, max_vars=2, max_exp=1)
                    g = random_polynomial(ring, rng, terms=2, max_vars=2, max_exp=1)
                    e = random_envelope_element(
                        env, rng, terms=2, laurent_bound=2, depth_max=2
                    )
                    assert env.act_polynomial(f * g, e) == env.act_polynomial(
                        f, env.act_polynomial(g, e)
                    )


def test_criterion_04_annihilator_dimensions():
    with _Timer(4, 120.0, "annihilator dimensions match the quotient, all depths"):
        for name in ALL_BUNDLED:
            poset = bundled_poset(name)
            ring = PolyRing(poset, QQ)
            n = len(poset.atoms)
            for x in poset.elements:
                env = Envelope.of(ring, x)
                ax = set(poset.atoms_below(x))
                for a in product(range(0, 4), repeat=n):
                    supp = {poset.atoms[g] for g, v in enumerate(a) if v > 0}
                    want = 1 if supp <= ax else 0
                    dims = {
                        m: len(env.annihilator_basis(a, m)) for m in (1, 2, 3)
                    }
                    assert set(dims.values()) == {want}, (name, x, a, dims)


def test_criterion_05_cover_map_formula():
    with _Timer(5, 60.0, "cover-map formula, unit, and linearity over Q, F2, F3"):
        for field in (QQ, PrimeField(2), PrimeField(3)):
            ring = PolyRing(bundled_poset("p1"), field)
            env_x = Envelope.of(ring, "x")
            env_y1 = Envelope.of(ring, "y1")
            psi = cover_map(ring, "x", "y1")
            assert psi(env_x.unit()) == env_y1.unit()
            variables = ring.variables
            for a1, a2 in product(range(-3, 4), repeat=2):
                for b, c in product(range(0, 4), repeat=2):
                    m = env_x.monomial({"y1": a1, "y2": a2}, {"x": b, "z": c})
                    want = env_y1.zero()
                    for d in range(0, -a2 + 1):
                        want = want + env_y1.monomial(
                            {"y1": a1 + d},
                            {"y2": -(a2 + d), "x": b + d, "z": c},
                            coeff=field.from_int(comb(b + d, b)),
                        )
                    img = psi(m)
                    assert img == want
                    for w in variables:
                        assert psi(env_x.act_variable(w, m)) == env_y1.act_variable(
                            w, img
                        )


def test_criterion_06_chain_uniqueness():
    with _Timer(6, 60.0, "all saturated chains agree on the standard box"):
        for name in ALL_BUNDLED:
            poset = bundled_poset(name)
            ring = PolyRing(poset, QQ)
            for x in poset.elements:
                env = Envelope.of(ring, x)
                box = None
                for z in poset.elements:
                    if not poset.leq(z, x):
                        continue
                    chains = poset.saturated_chains(x, z)
                    if len(chains) < 2:
                        continue
                    maps = [chain_map(ring, ch) for ch in chains]
                    if box is None:
                        box = list(
                            env.monomial_box(STD_LAURENT, depth_bound=STD_DEPTH)
                        )
                    for mon in box:
                        e = env.element({mon: ring.field.one})
                        images = [m(e) for m in maps]
                        assert all(img == images[0] for img in images[1:]), (
                            name,
                            x,
                            z,
                            mon,
                        )


def test_criterion_07_complex_verification():
    with _Timer(7, 120.0, "differentials: squares vanish, clean, diamonds cancel"):
        for name in ALL_BUNDLED:
            poset = bundled_poset(name)
            ring = PolyRing(poset, QQ)
            for w, x, mids in poset.rank2_intervals():
                assert len(mids) == 2
                z1, z2 = mids
                assert (
                    poset.incidence_sign(x, z1) * poset.incidence_sign(z1, w)
                    + poset.incidence_sign(x, z2) * poset.incidence_sign(z2, w)
                    == 0
                )
            gc = build_gamma(ring)
            rep = verify_dd_zero(gc, laurent_bound=3, depth_bound=3)
            assert rep.passed, (name, rep.witness)
            assert all(rep.details["rank2_intervals"].values())
            for (u, l), (sign, m) in gc.maps.items():
                assert check_clean(m, depth_bound=4).passed, (name, u, l)


def test_criterion_08_oracle_equivalence():
    with _Timer(8, 60.0, "scalar-complex cohomology equals the simplicial oracle"):
        for name in COMPLEX_BUNDLED:
            poset = bundled_poset(name)
            sc = build_scalar_complex(poset, QQ)
            n = len(poset.atoms)
            for a in product(range(0, 3), repeat=n):
                assert cohomology_dims_at(sc, a) == simplicial_oracle(poset, a), (
                    name,
                    a,
                )
        zero3 = (0, 0, 0)
        zero4 = (0, 0, 0, 0)
        hollow = cohomology_dims_at(
            build_scalar_complex(bundled_poset("hollow_triangle"), QQ), zero3
        )
        assert hollow == {0: 0, -1: 0, -2: 1}
        tetra = cohomology_dims_at(
            build_scalar_complex(bundled_poset("tetrahedron_boundary"), QQ), zero4
        )
        assert tetra == {0: 0, -1: 0, -2: 0, -3: 1}
        edges = cohomology_dims_at(
            build_scalar_complex(bundled_poset("two_disjoint_edges"), QQ), zero4
        )
        assert edges == {0: 0, -1: 1, -2: 0}


def test_criterion_09_base_change_roundtrip():
    with _Timer(9, 60.0, "non-clean composite repaired by its conjugate"):
        ring = PolyRing(bundled_poset("p1"), QQ)
        psi = cover_map(ring, "x", "y1")
        sigma = nonclean_automorphism(ring, "x", ring.field.one)
        phi = compose_maps(psi, sigma)
        failure = check_clean(phi, depth_bound=4)
        assert not failure.passed and failure.witness is not None
        rep = check_roundtrip(ring, "x", "y1", 3, 4)
        assert rep.passed and rep.checked == Envelope.of(ring, "x").box_size(3, 4)


def test_criterion_10_essential_witnesses():
    with _Timer(10, 60.0, "500 random essential-extension witnesses per poset"):
        for name in ALL_BUNDLED:
            poset = bundled_poset(name)
            ring = PolyRing(poset, QQ)
            rng = random.Random(f"witness-{name}")
            elements = poset.elements
            for k in range(500):
                x = elements[k % len(elements)]
                env = Envelope.of(ring, x)
                e = random_envelope_element(
                    env, rng, terms=2, laurent_bound=2, depth_max=3
                )
                f = env.essential_witness(e)
                out = env.act_polynomial(f, e)
                assert not out.is_zero() and env.in_base(out), (name, x)
