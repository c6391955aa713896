"""Rank-indexed signed complexes over a simplicial poset.

Two parallel constructions share one sign function on covers: the envelope
complex, whose terms collect the envelopes of all elements of a given rank
and whose differentials are incidence-signed normalized cover maps, and the
scalar complex, whose terms collect the embedded polynomial quotients and
whose degree slices are finite matrices.  The envelope complex is verified
(composites of consecutive differentials vanish on finite boxes) rather than
resolved: its graded pieces can be infinite-dimensional, so no cohomology is
attempted there.  Degreewise cohomology is computed on the scalar complex
and cross-checked against an independently coded simplicial oracle.

Degree slices are independent of one another, so callers may compute them in
parallel and merge by degree key; all matrices are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cleanmap import CertReport, cover_map
from .envelope import Envelope
from .linalg import bareiss_rank
from .scalars import QQ, add_term


@dataclass
class EnvelopeComplex:
    """Envelope terms by rank with signed normalized cover maps."""

    ring: object
    terms: dict
    maps: dict

    def covers(self):
        return tuple(self.maps.keys())


def build_gamma(ring) -> EnvelopeComplex:
    """Assemble the envelope complex: rank-i term lists the elements of rank
    i, and each cover carries its incidence sign and normalized map."""
    poset = ring.poset
    terms = {
        i: tuple(x for x in poset.elements if poset.rank_of(x) == i)
        for i in range(poset.max_rank + 1)
    }
    maps = {}
    for u, l in poset.covers:
        maps[(u, l)] = (poset.incidence_sign(u, l), cover_map(ring, u, l))
    return EnvelopeComplex(ring, terms, maps)


def _diamonds_below(env):
    """Each rank-2 interval [w < x] at x = env.x as (w, middles, Laurent
    positions, inverse positions), the positions being
    ``env.active_positions(w)``."""
    poset = env.ring.poset
    mids = {}
    for z in poset.lower_covers(env.x):
        for w in poset.lower_covers(z):
            mids.setdefault(w, []).append(z)
    for w, zs in mids.items():
        yield (w, zs, *env.active_positions(w))


def dd_sweep_size(ring, laurent_bound, depth_bound):
    """Number of source monomials ``verify_dd_zero`` expands at these bounds:
    over every rank-2 interval, the active Laurent box times the active
    inverse vectors."""
    total = 0
    for x in ring.poset.elements:
        if ring.poset.rank_of(x) < 2:
            continue
        env = Envelope.of(ring, x)
        for _, _, lpos, ipos in _diamonds_below(env):
            total += env.box_size(laurent_bound, depth_bound, lpos, ipos)
    return total


def verify_dd_zero(gc: EnvelopeComplex, laurent_bound=3, depth_bound=3) -> CertReport:
    """Check that consecutive signed differentials cancel, reporting
    cancellation per rank-2 interval.

    Both composites of an interval [w < x] move only the coordinates
    ``Envelope.active_positions(w)`` names, so each interval is swept over
    those alone (Laurent exponents in [-laurent_bound, laurent_bound],
    inverse depth at most depth_bound, the rest zero), and a pass holds for
    every value of the passive coordinates.  ``checked`` counts the full box
    the sweep covers: at each x of rank at least two, the Laurent box over
    its atoms times its inverse vectors of bounded depth.

    The witness is the first full-box monomial, in ``monomial_box`` order,
    of the first x with a failing interval, with its leftover at the least
    target where it does not cancel.  A monomial fails exactly when its
    active projection does, and of the monomials with one active part the
    least has passive Laurent exponents -laurent_bound and passive inverse
    exponents zero.  So each interval's first failing active monomial,
    lifted that way, is its first failing full-box monomial, and the witness
    is the least lift.

    Coefficients stay in exact integers: the expansion coefficients are
    binomial counts and the signs are units, so vanishing over the integers
    implies vanishing in any coefficient field.
    """
    ring = gc.ring
    diamonds = {}
    checked = 0
    witness = None
    for i in sorted(gc.terms, reverse=True):
        if i < 2:
            continue
        for x in gc.terms[i]:
            env = Envelope.of(ring, x)
            checked += env.box_size(laurent_bound, depth_bound)
            bad = []
            for w, zs, lpos, ipos in _diamonds_below(env):
                routes = []
                for z in zs:
                    (s1, m1), (s2, m2) = gc.maps[(x, z)], gc.maps[(z, w)]
                    (cd1,), (cd2,) = m1.covers, m2.covers
                    routes.append((s1 * s2, cd1, cd2))
                box = env.monomial_box(laurent_bound, depth_bound, lpos, ipos)
                first = next((mon for mon in box if _leftover(routes, *mon)), None)
                diamonds[(w, x)] = first is None
                if first is not None:
                    lb = -laurent_bound
                    lau = tuple(e if p in lpos else lb for p, e in enumerate(first[0]))
                    bad.append((w, routes, (lau, first[1])))
            if bad and witness is None:
                witness = _witness(env, bad)
    return CertReport(
        "differential composites vanish",
        {"laurent": laurent_bound, "depth": depth_bound},
        witness is None,
        checked=checked,
        witness=witness,
        details={
            "rank2_intervals": {
                f"[{w} < {x}]": ok for (w, x), ok in sorted(diamonds.items())
            }
        },
    )


def _leftover(routes, lau, inv):
    """Signed sum of the routes' images of one monomial, as integer terms."""
    acc = {}
    for s, cd1, cd2 in routes:
        for l1, i1, k1 in cd1.apply_monomial(lau, inv):
            for l2, i2, k2 in cd2.apply_monomial(l1, i1):
                add_term(acc, (l2, i2), s * k1 * k2)
    return acc


def _witness(env, bad):
    """Witness at env.x from its failing intervals, listed as (w, routes,
    first failing full-box monomial): the least of those monomials, and its
    leftover at the least target where it does not cancel."""
    ring = env.ring
    lau, inv = min((mon for _, _, mon in bad), key=lambda m: (m[1], m[0]))
    for w, routes, _ in sorted(bad, key=lambda b: b[0]):
        acc = _leftover(routes, lau, inv)
        if acc:
            tgt = Envelope.of(ring, w)
            return {
                "source": env.x,
                "monomial": env.element_to_json(
                    env.element({(lau, inv): ring.field.one})
                ),
                "target": w,
                "leftover": tgt.element_to_json(
                    tgt.element({mon: ring.field.from_int(v) for mon, v in acc.items()})
                ),
            }
    raise RuntimeError(f"the least failing lift at {env.x!r} cancels everywhere")


@dataclass
class ScalarComplex:
    """Rank-indexed quotient terms with the same sign data as the envelope
    complex; its degree slices are finite exact matrices."""

    poset: object
    field: object
    terms: dict
    signs: dict


def build_scalar_complex(poset, field=QQ) -> ScalarComplex:
    terms = {
        i: tuple(x for x in poset.elements if poset.rank_of(x) == i)
        for i in range(poset.max_rank + 1)
    }
    signs = {(u, l): poset.incidence_sign(u, l) for (u, l) in poset.covers}
    return ScalarComplex(poset, field, terms, signs)


def _slice_members(sc: ScalarComplex, a, i):
    atoms = sc.poset.atoms
    supp = {atoms[g] for g, v in enumerate(a) if v > 0}
    return [
        x
        for x in sc.terms.get(i, ())
        if supp <= set(sc.poset.atoms_below(x))
    ]


def _integer_slice(sc: ScalarComplex, rows, cols):
    """Integer incidence signs of the map from the elements cols, of one
    rank, to the elements rows, of the rank below: one row per element of
    rows."""
    ridx = {x: k for k, x in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, x in enumerate(cols):
        for l in sc.poset.lower_covers(x):
            if l in ridx:
                mat[ridx[l]][j] = sc.signs[(x, l)]
    return mat


def differential_matrix(sc: ScalarComplex, a, i):
    """Degree-a slice of the map from rank i to rank i-1 over the complex's
    field, with its row and column labels."""
    cols = _slice_members(sc, a, i)
    rows = _slice_members(sc, a, i - 1)
    fld = sc.field
    mat = [[fld.from_int(v) for v in r] for r in _integer_slice(sc, rows, cols)]
    return mat, rows, cols


def cohomology_dims_at(sc: ScalarComplex, a):
    """Exact kernel-modulo-image dimensions of the degree-a slice, keyed by
    cohomological index (rank i contributes at index -i)."""
    a = tuple(a)
    if len(a) != len(sc.poset.atoms):
        raise ValueError("degree vector has the wrong length")
    d = sc.poset.max_rank
    if any(v < 0 for v in a):
        return {-i: 0 for i in range(d + 1)}
    members = [_slice_members(sc, a, i) for i in range(d + 1)]
    ranks = {}
    for i in range(1, d + 1):
        rows, cols = members[i - 1], members[i]
        if rows and cols:
            ranks[i] = bareiss_rank(_integer_slice(sc, rows, cols), sc.field)
    return {
        -i: len(members[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        for i in range(d + 1)
    }


def simplicial_oracle(poset, a, field=QQ):
    """Reduced cohomology dimensions of the support-selected subcomplex,
    aligned to the scalar complex's indices.

    Only valid on face posets of simplicial complexes (all pairwise join
    sets have at most one element).  Built from scratch, with its own
    boundary matrices and its own elimination, so it shares no code path
    with the scalar complex.
    """
    if not poset.is_face_poset_of_complex():
        raise ValueError("poset is not the face poset of a simplicial complex")
    atoms = poset.atoms
    a = tuple(a)
    if len(a) != len(atoms):
        raise ValueError("degree vector has the wrong length")
    maxr = poset.max_rank
    dims = {-i: 0 for i in range(maxr + 1)}
    if any(v < 0 for v in a):
        return dims
    vertex_set = frozenset(atoms[g] for g, v in enumerate(a) if v > 0)
    faces = {frozenset(poset.atoms_below(x)) for x in poset.elements}
    selected = sorted(
        tuple(sorted(f - vertex_set)) for f in faces if vertex_set <= f
    )
    if not selected:
        return dims
    by_card = {}
    for g in selected:
        by_card.setdefault(len(g), []).append(g)
    pos = {m: {g: k for k, g in enumerate(lst)} for m, lst in by_card.items()}
    one, zero = field.one, field.zero
    ranks = {}
    for m, lst in sorted(by_card.items()):
        if m == 0:
            continue
        below = by_card.get(m - 1, [])
        if not below:
            ranks[m] = 0
            continue
        rows = [[zero] * len(lst) for _ in below]
        bidx = pos[m - 1]
        for j, g in enumerate(lst):
            for t in range(m):
                h = g[:t] + g[t + 1:]
                rows[bidx[h]][j] = one if t % 2 == 0 else -one
        ranks[m] = _oracle_rank(rows)
    shift = len(vertex_set)
    for m in by_card:
        c = len(by_card[m])
        dims[-(m + shift)] = c - ranks.get(m, 0) - ranks.get(m + 1, 0)
    return dims


def _oracle_rank(rows):
    # plain exact Gaussian elimination, deliberately separate from linalg
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        piv = rows[rank][c]
        rows[rank] = [v / piv for v in rows[rank]]
        for i in range(rank + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def complex_report(sc: ScalarComplex, a, poset_label, with_oracle=False):
    """Machine-readable certificate for one degree slice."""
    dims = cohomology_dims_at(sc, a)
    rep = {
        "poset": poset_label,
        "field": sc.field.name,
        "a": list(a),
        "dims": {str(i): dims[i] for i in sorted(dims)},
        "index_convention": "terms of rank i sit in cohomological degree -i",
    }
    if with_oracle:
        odims = simplicial_oracle(sc.poset, a, sc.field)
        rep["oracle"] = {str(i): odims[i] for i in sorted(odims)}
        rep["match"] = odims == dims
    else:
        rep["oracle"] = None
        rep["match"] = None
    return rep
