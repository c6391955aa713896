"""Cross-check of ideal membership and straightening against a Groebner
basis computed by sympy, an implementation that shares no code with
facering.  Skipped when sympy is not installed."""

import random

import pytest

from helpers import make_ring, random_polynomial

sympy = pytest.importorskip("sympy")

POSETS = ("p1", "hollow_triangle", "double_triangle", "tetrahedron_boundary")


def _to_sympy(f, syms):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(syms, mon)))
            for mon, c in f.terms.items()
        ),
        sympy.Integer(0),
    )


@pytest.fixture(scope="module", params=POSETS)
def ring_and_basis(request):
    ring = make_ring(request.param)
    syms = sympy.symbols(f"t0:{ring.nvars}")
    gens = [_to_sympy(g, syms) for g in ring.generators()]
    basis = sympy.groebner(gens, *syms, order="grevlex", domain="QQ")
    return ring, syms, basis


def _reduces_to_zero(basis, expr):
    return basis.reduce(sympy.expand(expr))[1] == 0


def test_membership_agrees_with_groebner(ring_and_basis):
    ring, syms, basis = ring_and_basis
    rng = random.Random(7)
    gens = ring.generators()
    for _ in range(25):
        f = random_polynomial(ring, rng, terms=3, max_vars=3, max_exp=2)
        assert ring.is_ideal_member(f) == _reduces_to_zero(basis, _to_sympy(f, syms))
    for _ in range(25):
        g = ring.zero()
        for gen in rng.sample(gens, min(2, len(gens))):
            g = g + random_polynomial(ring, rng) * gen
        if g.is_zero():
            continue
        assert ring.is_ideal_member(g)
        assert _reduces_to_zero(basis, _to_sympy(g, syms))
        # a member plus a non-member is not a member, on both sides
        h = g + ring.monomial({ring.variables[0]: 1})
        assert not ring.is_ideal_member(h)
        assert not _reduces_to_zero(basis, _to_sympy(h, syms))


def test_straighten_differs_by_a_member(ring_and_basis):
    ring, syms, basis = ring_and_basis
    rng = random.Random(11)
    for _ in range(25):
        f = random_polynomial(ring, rng, terms=4, max_vars=3, max_exp=3)
        diff = f - ring.straighten(f)
        assert _reduces_to_zero(basis, _to_sympy(diff, syms))
