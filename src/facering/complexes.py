"""Rank-indexed signed complexes over a simplicial poset.

Two complexes share one build of rank-indexed terms and cover signs: the
scalar complex, whose terms collect the embedded polynomial quotients and
whose degree slices are finite matrices, and the envelope complex, which
takes those terms and signs and puts an envelope on each element and a
normalized cover map on each cover.  The envelope complex is verified
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
from .envelope import Envelope, degree_vector
from .linalg import bareiss_rank
from .scalars import QQ, add_term, check_integers, check_non_negative


@dataclass
class EnvelopeComplex:
    """Envelope terms by rank with signed normalized cover maps."""

    ring: object
    terms: dict
    maps: dict


def build_gamma(ring) -> EnvelopeComplex:
    """Assemble the envelope complex on the scalar complex's terms and signs:
    each cover carries its incidence sign and normalized map."""
    sc = build_scalar_complex(ring.poset, ring.field)
    maps = {c: (s, cover_map(ring, *c)) for c, s in sc.signs.items()}
    return EnvelopeComplex(ring, sc.terms, maps)


def dd_sweep_size(ring, laurent_bound):
    """Number of source monomials ``verify_dd_zero`` expands at this Laurent
    bound: the depth-zero active box of every rank-2 interval [w < x], the
    (laurent_bound + 1)**2 exponents of its two removed atoms.  The depth
    bound only sizes the box ``checked`` counts (``verify_dd_zero``)."""
    check_non_negative((laurent_bound,), "Laurent bound")
    return (laurent_bound + 1) ** 2 * len(ring.poset.rank2_intervals())


def verify_dd_zero(gc: EnvelopeComplex, laurent_bound=3, depth_bound=3) -> CertReport:
    """Check that consecutive signed differentials cancel, reporting
    cancellation per rank-2 interval.

    Each interval [w < x] is swept over the depth-zero active box of the
    descent from x to w, ``Envelope.monomial_box(laurent_bound, 0, w)``: the
    (laurent_bound + 1)**2 exponents of its two removed atoms.  That sweep
    decides the active box of every depth, and ``monomial_box`` proves that
    the monomials off the active box leave no leftover and that a pass holds
    at every value of the passive coordinates.  So the depth bound only
    sizes the full box ``checked`` counts: at each x of rank at least two,
    the Laurent box [-laurent_bound, laurent_bound] over its atoms times its
    inverse vectors of bounded depth.

    Why depth zero decides.  Let an active monomial have removed-atom
    exponents a and inverse part c.  By the ``CleanMap`` proof, route i (a
    sign s_i, then the two cover steps) maps it to the sum over the terms t
    of its table entry E_i(a) of w_t(c) mono_t(c), where w_t(c) = prod
    C(c_j + d_j, d_j) >= 1 over the moves of t and mono_t(c) is t's monomial
    translated by c.  Entries of one source and target share their layout,
    so w_t and mono_t do not depend on the route, and t -> mono_t(c) is
    injective for fixed c.  So the signed integer leftover is the sum over t
    of n_t w_t(c) mono_t(c), with n_t = s_1 [t in E_1(a)] + s_2 [t in
    E_2(a)], and it is decided modulo the field's characteristic p (0 for
    Q).  As w_t(0) = 1, it vanishes at c = 0 exactly when p divides every
    n_t, and then p divides every n_t w_t(c): a failure at c is a failure
    at c = 0.  ``monomial_box`` puts the inverse part outermost, in
    lexicographic order, so the zero inverse part comes first: the first
    failing monomial of the active box at any depth has c = 0, and is the
    first failing monomial of the depth-zero box.

    The witness is the first full-box monomial, in ``monomial_box`` order,
    of the first x with a failing interval, with its leftover at the least
    target where it does not cancel.  A monomial fails exactly when its
    active projection does, and of the monomials with one active part the
    least has passive Laurent exponents -laurent_bound and passive inverse
    exponents zero.  So each interval's first failing active monomial,
    lifted that way, is its first failing full-box monomial (the skipped
    monomials do not fail), and the witness is the least lift.
    """
    ring = gc.ring
    p = ring.field.char
    below = {}
    for w, x, zs in ring.poset.rank2_intervals():
        below.setdefault(x, []).append((w, zs))
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
            for w, zs in below.get(x, ()):
                routes = _routes(gc, w, x, zs)
                box = env.monomial_box(laurent_bound, 0, w)
                first = next((m for m in box if _fails(_leftover(routes, *m), p)), None)
                diamonds[(w, x)] = first is None
                if first is not None:
                    lpos, _ = env.active_positions(w)
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


def _routes(gc, w, x, zs):
    """The signed routes of [w < x] through its middles zs, as (sign, first
    cover step, second cover step), the layout ``_leftover`` reads."""
    routes = []
    for z in zs:
        (s1, m1), (s2, m2) = gc.maps[(x, z)], gc.maps[(z, w)]
        (cd1,), (cd2,) = m1.covers, m2.covers
        routes.append((s1 * s2, cd1, cd2))
    return routes


def _leftover(routes, lau, inv):
    """Signed sum of the routes' images of one monomial, as integer terms."""
    acc = {}
    for s, cd1, cd2 in routes:
        for l1, i1, k1 in cd1.apply_monomial(lau, inv):
            for l2, i2, k2 in cd2.apply_monomial(l1, i1):
                add_term(acc, (l2, i2), s * k1 * k2)
    return acc


def _fails(acc, p):
    """Whether the integer leftover acc is nonzero in characteristic p."""
    return any(v % p if p else v for v in acc.values())


def _witness(env, bad):
    """Witness at env.x from its failing intervals, listed as (w, routes,
    first failing full-box monomial): the least of those monomials, and its
    leftover at the least target where it does not cancel."""
    ring = env.ring
    lau, inv = min((mon for _, _, mon in bad), key=lambda m: (m[1], m[0]))
    for w, routes, _ in sorted(bad, key=lambda b: b[0]):
        acc = _leftover(routes, lau, inv)
        if _fails(acc, ring.field.char):
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
    """Rank-indexed quotient terms and the incidence sign of each cover, the
    ones the envelope complex is built on; its degree slices are finite
    exact matrices."""

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
    """The rank-i elements of the degree-a slice: those whose atoms include
    every atom where a is positive; none when a has a negative entry."""
    if a and min(a) < 0:
        return []
    poset = sc.poset
    supp = {poset.atoms[g] for g, v in enumerate(a) if v > 0}
    return [x for x in sc.terms.get(i, ()) if supp <= poset.atom_set(x)]


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
    field, with its row and column labels.  ``ValueError`` unless a is a
    vector of ints, one per atom."""
    a = check_integers(degree_vector(a, len(sc.poset.atoms)), "degree entries")
    check_integers((i,), "rank")
    cols = _slice_members(sc, a, i)
    rows = _slice_members(sc, a, i - 1)
    fld = sc.field
    mat = [[fld.from_int(v) for v in r] for r in _integer_slice(sc, rows, cols)]
    return mat, rows, cols


def cohomology_dims_at(sc: ScalarComplex, a):
    """Exact kernel-modulo-image dimensions of the degree-a slice, keyed by
    cohomological index (rank i contributes at index -i)."""
    a = check_integers(degree_vector(a, len(sc.poset.atoms)), "degree entries")
    d = sc.poset.max_rank
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
    sets have at most one element, read off the poset's join table).  Built
    from scratch, with its own boundary matrices and its own elimination
    (``_oracle_rank``), so it shares no code path with the scalar complex.
    The boundary entries are the ints 1 and -1, written p - 1 over F_p.
    """
    if not poset.is_face_poset_of_complex():
        raise ValueError("poset is not the face poset of a simplicial complex")
    atoms = poset.atoms
    a = check_integers(degree_vector(a, len(atoms)), "degree entries")
    maxr = poset.max_rank
    dims = {-i: 0 for i in range(maxr + 1)}
    if any(v < 0 for v in a):
        return dims
    vertex_set = frozenset(atoms[g] for g, v in enumerate(a) if v > 0)
    faces = {poset.atom_set(x) for x in poset.elements}
    selected = sorted(
        tuple(sorted(f - vertex_set)) for f in faces if vertex_set <= f
    )
    if not selected:
        return dims
    by_card = {}
    for g in selected:
        by_card.setdefault(len(g), []).append(g)
    pos = {m: {g: k for k, g in enumerate(lst)} for m, lst in by_card.items()}
    p = field.char
    minus_one = p - 1 if p else -1
    ranks = {}
    for m, lst in sorted(by_card.items()):
        if m == 0:
            continue
        below = by_card.get(m - 1, [])
        if not below:
            ranks[m] = 0
            continue
        rows = [[0] * len(lst) for _ in below]
        bidx = pos[m - 1]
        for j, g in enumerate(lst):
            for t in range(m):
                h = g[:t] + g[t + 1:]
                rows[bidx[h]][j] = 1 if t % 2 == 0 else minus_one
        ranks[m] = _oracle_rank(rows, p)
    shift = len(vertex_set)
    for m in by_card:
        c = len(by_card[m])
        dims[-(m + shift)] = c - ranks.get(m, 0) - ranks.get(m + 1, 0)
    return dims


def _oracle_rank(rows, p):
    """Rank of rows, lists of ints, over the field of characteristic p (0
    for Q); rows is consumed.  Over F_p the entries must be residues in
    [0, p).

    Deliberately separate from ``linalg``, in code and in algorithm.  Over
    F_p it is Gaussian elimination on residues: the pivot row is scaled by
    the pivot's inverse, pow(piv, -1, p), and cleared from the rows below.
    Over Q it is fraction-free Bareiss elimination: each row below becomes
    (piv*row_i - f*row_r) / prev, with prev the previous pivot (1 at the
    start).  Each entry is then a minor of the input (Sylvester's
    identity), so the division is exact, and an entry is zero exactly where
    field-scalar elimination has a zero: the pivot columns, and so the
    rank, are the same.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(n):
        k = next((i for i in range(rank, m) if rows[i][c]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        row = rows[rank]
        piv = row[c]
        if p:
            inv = pow(piv, -1, p)
            row = rows[rank] = [v * inv % p for v in row]
            for i in range(rank + 1, m):
                f = rows[i][c]
                if f:
                    rows[i] = [(u - f * v) % p for u, v in zip(rows[i], row)]
        else:
            for i in range(rank + 1, m):
                f = rows[i][c]
                rows[i] = [(piv * u - f * v) // prev for u, v in zip(rows[i], row)]
            prev = piv
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
