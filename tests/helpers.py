"""Shared test utilities: random generators and independent mini-oracles."""

from itertools import combinations, combinations_with_replacement, product
from math import comb

from facering import (
    Envelope,
    PolyRing,
    PosetError,
    SimplicialPoset,
    ValidationReport,
    bundled_poset,
    tau_coefficient,
)
from facering.envelope import bounded_vectors
from facering.linalg import kernel_basis
from facering.scalars import QQ, add_term

ALL_BUNDLED = (
    "p1",
    "hollow_triangle",
    "solid_triangle",
    "tetrahedron_boundary",
    "two_disjoint_edges",
    "double_triangle",
)

COMPLEX_BUNDLED = (
    "hollow_triangle",
    "solid_triangle",
    "tetrahedron_boundary",
    "two_disjoint_edges",
)

# the six-vertex real projective plane: its answers depend on the field
RP2_FACETS = (
    "124", "126", "135", "136", "145", "234", "235", "256", "346", "456",
)

# the seven-vertex torus: {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS7_FACETS = tuple(
    "".join(sorted(str((i + s) % 7 + 1) for s in shift))
    for i in range(7)
    for shift in ((0, 1, 3), (0, 2, 3))
)


def face_poset(facets):
    """Face poset of the simplicial complex with these facets, each a string
    of one-character vertex labels; a face is named by its sorted labels and
    the empty face by "0"."""
    faces = set()
    for facet in facets:
        for k in range(1, len(facet) + 1):
            faces.update("".join(c) for c in combinations(sorted(facet), k))
    names = ["0"] + sorted(faces, key=lambda f: (len(f), f))
    covers = [
        (f, f[:t] + f[t + 1:] or "0") for f in names[1:] for t in range(len(f))
    ]
    return SimplicialPoset(names, covers)


def glued_pair(facet):
    """Two copies of the simplex on the labels of facet, glued along their
    boundary: the face poset of its boundary plus two tops, "A" and "B".
    A simplicial poset that is not the face poset of a complex."""
    boundary = face_poset(
        ["".join(f) for f in combinations(sorted(facet), len(facet) - 1)]
    )
    top = [f for f in boundary.elements if len(f) == len(facet) - 1]
    covers = [list(c) for c in boundary.covers]
    covers += [[t, f] for t in ("A", "B") for f in top]
    return SimplicialPoset(list(boundary.elements) + ["A", "B"], covers)


def no_meet_poset():
    """Two atoms a, b with two joins c, d, both below e: c and d have no
    meet, since a and b are both maximal below them.  Not simplicial."""
    return SimplicialPoset(
        ["0", "a", "b", "c", "d", "e"],
        [["a", "0"], ["b", "0"], ["c", "a"], ["c", "b"], ["d", "a"], ["d", "b"],
         ["e", "c"], ["e", "d"]],
    )


def make_ring(name, field=QQ):
    return PolyRing(bundled_poset(name), field)


def random_monomial_exps(ring, rng, max_vars=2, max_exp=2):
    exps = {}
    for _ in range(rng.randint(1, max_vars)):
        exps[rng.choice(ring.variables)] = rng.randint(1, max_exp)
    return exps


def random_polynomial(ring, rng, terms=3, max_vars=2, max_exp=2, coeff_range=3):
    f = ring.zero()
    for _ in range(rng.randint(1, terms)):
        c = 0
        while c == 0:
            c = rng.randint(-coeff_range, coeff_range)
        f = f + ring.term(ring.field.from_int(c), random_monomial_exps(ring, rng, max_vars, max_exp))
    return f


def random_envelope_element(env, rng, terms=2, laurent_bound=2, depth_max=3):
    """Random nonzero element with inverse parts of bounded depth."""
    out = env.zero()
    while out.is_zero():
        acc = {}
        for _ in range(rng.randint(1, terms)):
            lau = tuple(rng.randint(-laurent_bound, laurent_bound) for _ in range(env.natoms))
            inv = [0] * env.ninv
            budget = rng.randint(0, depth_max)
            order = list(range(env.ninv))
            rng.shuffle(order)
            for j in order:
                w = env._iweight[j]
                if w <= budget and rng.random() < 0.6:
                    e = rng.randint(1, budget // w)
                    inv[j] = e
                    budget -= e * w
            c = 0
            while c == 0:
                c = rng.randint(-2, 2)
            key = (lau, tuple(inv))
            acc[key] = acc.get(key, env.ring.field.zero) + env.ring.field.from_int(c)
        out = env.element(acc)
    return out


def subset_expansion_action(env, exps, elem):
    """Independent oracle for the polynomial-monomial action: expand the
    comultiplication of the product over all subsets of variable occurrences
    instead of iterating single-variable actions.  Reads the order and the
    atoms off the poset, not the tables the envelope's action reads."""
    ring = env.ring
    poset = ring.poset
    field = ring.field
    occurrences = []
    for k, e in enumerate(exps):
        occurrences.extend([ring.variables[k]] * e)
    m = len(occurrences)
    total = {}
    for (lau, inv), c in elem.terms.items():
        for r in range(m + 1):
            for left in combinations(range(m), r):
                left_set = set(left)
                # face-projection factor on the Laurent part
                lau2 = list(lau)
                dead = False
                for i in left:
                    z = occurrences[i]
                    if not poset.leq(z, env.x):
                        dead = True
                        break
                    for a in poset.atom_set(z):
                        lau2[env.atoms.index(a)] += 1
                if dead:
                    continue
                # contraction factor on the inverse part
                inv2 = list(inv)
                for i in range(m):
                    if i in left_set:
                        continue
                    z = occurrences[i]
                    if z not in env.inv_vars:
                        dead = True
                        break
                    j = env.inv_vars.index(z)
                    if inv2[j] == 0:
                        dead = True
                        break
                    inv2[j] -= 1
                if dead:
                    continue
                key = (tuple(lau2), tuple(inv2))
                s = total.get(key, field.zero) + c
                if s:
                    total[key] = s
                else:
                    total.pop(key, None)
    return env.element(total)


def reference_dd_sweep(gc, laurent_bound, depth_bound, memo=None):
    """Independent full-box check that consecutive differentials cancel.

    Expands every monomial of the full box at every x of rank at least two
    through every route x > z > w with the public maps, m2(m1(e)), and sums
    the signed images per target.  Returns the pass flag, the number of
    monomials swept, the witness of the first monomial that does not
    cancel (same layout as ``verify_dd_zero``) and the set of failing
    rank-2 intervals (w, x).  Route images do not depend on the signs, so a
    caller sweeping several sign choices of one complex may share ``memo``.
    Signs and sums are taken in the ring's field.
    """
    ring = gc.ring
    poset = ring.poset
    field = ring.field
    memo = {} if memo is None else memo
    checked = 0
    witness = None
    failing = set()
    for i in sorted(gc.terms, reverse=True):
        if i < 2:
            continue
        for x in gc.terms[i]:
            env = Envelope.of(ring, x)
            for mon in env.monomial_box(laurent_bound, depth_bound=depth_bound):
                checked += 1
                e = env.element({mon: field.one})
                sums = {}
                for z in poset.lower_covers(x):
                    s1, m1 = gc.maps[(x, z)]
                    for w in poset.lower_covers(z):
                        s2, m2 = gc.maps[(z, w)]
                        key = (m1, m2, mon)
                        img = memo.get(key)
                        if img is None:
                            img = memo[key] = m2(m1(e)).terms
                        acc = sums.setdefault(w, {})
                        for t, c in img.items():
                            add_term(acc, t, c * field.from_int(s1 * s2))
                bad = sorted(w for w, acc in sums.items() if acc)
                failing.update((w, x) for w in bad)
                if bad and witness is None:
                    tgt = Envelope.of(ring, bad[0])
                    witness = {
                        "source": x,
                        "monomial": env.element_to_json(e),
                        "target": bad[0],
                        "leftover": tgt.element_to_json(tgt.element(sums[bad[0]])),
                    }
    return witness is None, checked, witness, failing


def reference_tau(phi, alpha):
    """Independent table of the base-change conjugate of phi at the monomial
    alpha, as {beta: coefficient}.  Walks every inverse part below alpha's
    exponent by exponent, forces the Laurent part from alpha's degree, keeps
    the betas of alpha's degree and pairs each through ``tau_coefficient``."""
    env = phi.source_env
    adeg = env.degree(alpha)
    out = {}
    for inv_b in product(*(range(e + 1) for e in alpha[1])):
        lau_b = tuple(
            adeg[g] + sum(e * env._ideg[j][g] for j, e in enumerate(inv_b))
            for g in env._acoord
        )
        beta = (lau_b, inv_b)
        if env.degree(beta) != adeg:
            continue
        co = tau_coefficient(phi, alpha, beta)
        if co:
            out[beta] = co
    return out


def reference_monomials_of_degree(env, a, depth_max, depth_min=0, memo=None):
    """Independent degree-a slice of env with depth in [depth_min,
    depth_max], sorted.

    Each multiset of at most depth_max inverse variables
    (``combinations_with_replacement``) is an inverse part; its depth is the
    sum of the variables' ranks, and it lowers the degree by one at each atom
    of each variable.  The parts whose degree at the atoms not below x is a
    there are kept, each with its Laurent part forced by a.  The parts of one
    (env, depth_max) do not depend on a, so callers sweeping many degrees may
    share ``memo``.
    """
    ring = env.ring
    poset = ring.poset
    outside = [g for g, atom in enumerate(poset.atoms) if not poset.leq(atom, env.x)]
    parts = None if memo is None else memo.get((env, depth_max))
    if parts is None:
        # off-x degree lowered -> [(inverse part, degree lowered, depth)]
        parts = {}
        for k in range(depth_max + 1):
            for zs in combinations_with_replacement(env.inv_vars, k):
                depth = sum(poset.rank_of(z) for z in zs)
                if depth > depth_max:
                    continue
                lowered = [0] * ring.natoms
                for z in zs:
                    for atom in poset.atom_set(z):
                        lowered[ring.atom_index(atom)] += 1
                inv = tuple(zs.count(z) for z in env.inv_vars)
                key = tuple(lowered[g] for g in outside)
                parts.setdefault(key, []).append((inv, lowered, depth))
        if memo is not None:
            memo[(env, depth_max)] = parts
    out = [
        (tuple(a[ring.atom_index(atom)] + lowered[ring.atom_index(atom)]
               for atom in env.atoms), inv)
        for inv, lowered, depth in parts.get(tuple(-a[g] for g in outside), ())
        if depth >= depth_min
    ]
    return sorted(out)


def reference_annihilator_basis(env, a, depth):
    """Independent annihilator basis of the degree-a slice of depth at most
    depth.

    The slice is every inverse part of bounded depth on the variables whose
    atoms all lie below x, with the Laurent part forced by the degree, kept
    where the degree matches.  Every term of every defining relation acts on
    every slice monomial through ``subset_expansion_action``, and the kernel
    of the resulting rows is taken with ``kernel_basis``.  A relation whose
    degree has an atom off x is left out: each of its terms (it is
    homogeneous) has a variable with that atom, which is not below x, so it
    acts by contraction alone, and its inverse exponent is zero on the
    whole slice (or the degree would be negative at that atom).
    """
    ring = env.ring
    field = ring.field
    a = tuple(a)
    outside = [g for g in range(ring.natoms) if g not in env._acoord]
    if any(a[g] for g in outside):
        # off the atoms of x the degree is minus the inverse part's
        return []
    free = [j for j, d in enumerate(env._ideg) if not any(d[g] for g in outside)]
    mons = []
    for vals in bounded_vectors([env._iweight[j] for j in free], depth):
        inv = [0] * env.ninv
        for j, e in zip(free, vals):
            inv[j] = e
        inv = tuple(inv)
        lau = tuple(
            a[g] + sum(e * env._ideg[j][g] for j, e in zip(free, vals))
            for g in env._acoord
        )
        if env.degree((lau, inv)) == a:
            mons.append((lau, inv))
    if not mons:
        return []
    mons.sort()
    offk = [
        k for k, z in enumerate(ring.variables)
        if any(ring.variable_degree(z)[g] for g in outside)
    ]
    rows = {}
    for gi, f in enumerate(ring.generators()):
        if any(map(next(iter(f.terms)).__getitem__, offk)):
            continue
        for exps, c in f.terms.items():
            for col, mon in enumerate(mons):
                img = subset_expansion_action(env, exps, env.element({mon: field.one}))
                for t, v in img.terms.items():
                    row = rows.setdefault((gi, t), [field.zero] * len(mons))
                    row[col] = row[col] + c * v
    rows = [[field_to_int(field, v) for v in row] for row in rows.values()]
    basis = kernel_basis(rows, len(mons), field)
    return [
        env.element({mons[k]: v for k, v in enumerate(vec)}) for vec in basis
    ]


def field_to_int(field, v):
    """The int whose image in field is v: its residue over F_p, and v itself
    over Q, where v must be integral."""
    if field.char:
        return v.val
    if v.denominator != 1:
        raise ValueError(f"{v} is not an integer")
    return v.numerator


def reference_reduce(mat, ncols):
    """Field-scalar Gauss-Jordan: row-reduce mat, a list of lists of field
    scalars, in place to reduced echelon form with leading ones, and return
    the pivot columns.  Integer-free, so ``linalg`` is checked against it."""
    m = len(mat)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        piv = mat[r][c]
        mat[r] = row = [v / piv for v in mat[r]]
        for i in range(m):
            f = mat[i][c]
            if f and i != r:
                mat[i] = [a - f * b for a, b in zip(mat[i], row)]
        pivots.append(c)
    return pivots


def reference_rank(rows, field):
    """Rank over field of integer rows, by ``reference_reduce``."""
    mat = [[field.from_int(v) for v in r] for r in rows]
    return len(reference_reduce(mat, len(rows[0]) if rows else 0))


def reference_kernel_basis(rows, ncols, field):
    """Kernel basis over field of integer rows, read off
    ``reference_reduce`` the way ``linalg.kernel_basis`` reads its form."""
    mat = [[field.from_int(v) for v in r] for r in rows]
    pivots = reference_reduce(mat, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [field.zero] * ncols
        vec[f] = field.one
        for i, c in enumerate(pivots):
            vec[c] = -mat[i][f]
        basis.append(vec)
    return basis


def reference_oracle_rank(rows):
    """Field-scalar rank by the simplicial oracle's former elimination,
    kept verbatim: ``complexes._oracle_rank`` is checked against it."""
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


def reference_is_complex(poset):
    """The face-poset test by its definition: every pair of elements has
    at most one minimal common upper bound."""
    return all(
        len(poset.join_set((p, q))) <= 1 for p, q in combinations(poset.names, 2)
    )


def reference_generators(ring):
    """Term dicts of the defining relations, built pair by pair from
    ``reference_join_table`` in the ring's variable order."""
    field = ring.field
    out = []
    for (k1, k2), (meet, joins) in reference_join_table(ring.poset).items():
        lead = [0] * ring.nvars
        lead[k1] += 1
        lead[k2] += 1
        terms = {tuple(lead): field.one}
        for z in joins:
            tail = [0] * ring.nvars
            if meet is not None:
                tail[meet] += 1
            tail[z] += 1
            add_term(terms, tuple(tail), -field.one)
        out.append(terms)
    return out


def reference_prime_generators(ring, x, generators):
    """The graded prime at x by its definition, from ``generators``, the
    term dicts of ``reference_generators(ring)``: the variables not under x,
    and each relation with its terms at those variables dropped, every
    distinct nonzero one once, in order."""
    killed = [k for k, z in enumerate(ring.variables) if not ring.poset.leq(z, x)]
    reduced, seen = [], set()
    for terms in generators:
        kept = {m: c for m, c in terms.items() if not any(m[k] for k in killed)}
        key = frozenset(kept.items())
        if kept and key not in seen:
            seen.add(key)
            reduced.append(kept)
    return tuple(ring.variables[k] for k in killed), reduced


def reference_join_table(poset):
    """The join table by its definition, read off ``leq`` alone: for each
    incomparable pair of proper elements, in pair order, the position of
    the common lower bound above all others (None at the bottom or without
    joins) and the positions of the minimal common upper bounds.  Raises
    ``PosetError`` where a pair with joins has no largest lower bound."""
    proper = poset.proper_elements
    pos = {x: k for k, x in enumerate(proper)}
    leq = poset.leq
    table = {}
    for (k1, x), (k2, y) in combinations(enumerate(proper), 2):
        if leq(x, y) or leq(y, x):
            continue
        ubs = [u for u in proper if leq(x, u) and leq(y, u)]
        joins = tuple(
            pos[u] for u in ubs if not any(v != u and leq(v, u) for v in ubs)
        )
        meet = poset.bottom
        if joins:
            lbs = [v for v in poset.elements if leq(v, x) and leq(v, y)]
            tops = [v for v in lbs if all(leq(w, v) for w in lbs)]
            if not tops:
                raise PosetError("no largest common lower bound")
            meet = tops[0]
        table[(k1, k2)] = (None if meet == poset.bottom else pos[meet], joins)
    return table


def reference_rank2_intervals(poset):
    """Every [w, x] of rank difference two with its middles, by scanning
    all elements for w and again for the middles."""
    out = []
    for x in poset.elements:
        rx = poset.rank_of(x)
        for w in poset.elements:
            if poset.rank_of(w) == rx - 2 and poset.leq(w, x):
                mids = tuple(
                    z
                    for z in poset.elements
                    if poset.rank_of(z) == rx - 1
                    and poset.leq(w, z)
                    and poset.leq(z, x)
                )
                out.append((w, x, mids))
    return out


def reference_validate_simplicial(poset):
    """The axiom check on every pair of every lower interval: [0, x] is
    boolean when it has 2^rank(x) elements with distinct atom sets, x has
    rank(x) atoms, and y <= z holds exactly when atoms(y) <= atoms(z)."""
    violations = []
    for u, l in poset.covers:
        if poset.rank_of(u) != poset.rank_of(l) + 1:
            violations.append(("graded covers", (u, l)))
    for x in poset.elements:
        interval = [y for y in poset.elements if poset.leq(y, x)]
        r = poset.rank_of(x)
        ok = len(poset.atoms_below(x)) == r and len(interval) == 2 ** r
        if ok:
            keys = {y: frozenset(poset.atoms_below(y)) for y in interval}
            ok = len(set(keys.values())) == 2 ** r and all(
                poset.leq(y, z) == (keys[y] <= keys[z])
                for y in interval
                for z in interval
            )
        if not ok:
            violations.append(("boolean lower interval", (x,)))
    for w, x, mids in reference_rank2_intervals(poset):
        if len(mids) != 2:
            violations.append(("two middles in rank-2 intervals", (w, x)))
    return ValidationReport(not violations, violations)


MUTATIONS = ("drop", "redundant", "rewire")


def mutated(poset, kind, rng):
    """The element names and covers of poset with one cover edited:
    "drop" removes one, "redundant" adds an edge u > l between comparable
    elements that is not a cover, "rewire" points one cover at another
    element of its lower end's rank.  Unchanged where no such edit exists.
    The result may not be a poset; build it with ``SimplicialPoset``."""
    names = list(poset.elements)
    covers = [list(c) for c in poset.covers]
    if kind == "drop" and covers:
        covers.pop(rng.randrange(len(covers)))
    elif kind == "redundant":
        pairs = [
            [u, l] for u in names for l in names
            if u != l and poset.leq(l, u) and not poset.is_cover(u, l)
        ]
        if pairs:
            covers.append(rng.choice(pairs))
    elif kind == "rewire" and covers:
        j = rng.randrange(len(covers))
        u, l = covers[j]
        others = [y for y in names if y != l and poset.rank_of(y) == poset.rank_of(l)]
        if others:
            covers[j] = [u, rng.choice(others)]
    return names, covers


def reference_linearity_sweep(m, laurent_bound, depth_bound):
    """Independent full-box linearity sweep: every monomial of the full box,
    in ``monomial_box`` order, must keep its degree under m and commute
    there with every variable.  Returns the pass flag, the number of
    monomials before the first failure (all of them on a pass) and the
    witness of that failure, laid out as ``check_linearity``'s."""
    src = m.source_env
    tgt = m.target_env
    one = src.ring.field.one
    checked = 0
    for mon in src.monomial_box(laurent_bound, depth_bound):
        e = src.element({mon: one})
        img = m(e)
        d = src.degree(mon)
        if any(tgt.degree(t) != d for t in img.terms):
            return False, checked, {
                "reason": "degree not preserved",
                "input": src.element_to_json(e),
                "image": tgt.element_to_json(img),
            }
        for w in src.ring.variables:
            if m(src.act_variable(w, e)) != tgt.act_variable(w, img):
                return False, checked, {
                    "reason": f"action of t[{w}] does not commute",
                    "input": src.element_to_json(e),
                }
        checked += 1
    return True, checked, None


def reference_composite(m, elem):
    """Independent image of elem under the CleanMap m: every term through
    every cover step with ``CoverData.apply_monomial``, no term dropped
    before it, summed over the field."""
    field = m.ring.field
    terms = dict(elem.terms)
    for cd in m.covers:
        out = {}
        for (lau, inv), c in terms.items():
            for tl, ti, k in cd.apply_monomial(lau, inv):
                add_term(out, (tl, ti), c * field.from_int(k))
        terms = out
    return m.target_env.element(terms)


def reference_cover_step(ring, upper, lower, mon):
    """Independent image of the source monomial mon under the cover step
    upper > lower, as {(laurent, inverse): int coefficient}.

    Works on element names only: the removed atom r is the atom below upper
    that is not below lower, and Z holds the inverse variables below upper
    but not below lower.  Each multiset of units moved out of r's exponent
    a_r into Z, at most -a_r of them, adds the d_y units sent to y to y's
    inverse exponent c_y and to the Laurent exponent of each atom below y,
    and leaves the rest at r's inverse exponent, weighted by the product of
    the binomials C(c_y + d_y, d_y).  A positive a_r gives nothing.
    """
    poset = ring.poset
    src = Envelope.of(ring, upper)
    tgt = Envelope.of(ring, lower)
    lau = dict(zip(src.atoms, mon[0]))
    inv = dict(zip(src.inv_vars, mon[1]))
    (r,) = [a for a in src.atoms if not poset.leq(a, lower)]
    zs = [y for y in src.inv_vars if poset.leq(y, upper) and not poset.leq(y, lower)]
    out = {}
    for units in range(-lau[r] + 1):
        for dest in combinations_with_replacement(zs, units):
            tl = dict(lau)
            ti = dict(inv)
            coeff = 1
            for y in set(dest):
                dy = dest.count(y)
                coeff *= comb(inv[y] + dy, dy)
                ti[y] += dy
                for a in src.atoms:
                    if poset.leq(a, y):
                        tl[a] += dy
            ti[r] = -(lau[r] + units)
            key = (tuple(tl[a] for a in tgt.atoms), tuple(ti[y] for y in tgt.inv_vars))
            out[key] = out.get(key, 0) + coeff
    return out


def active_linearity_counts(env, w, laurent_bound, depth_bound):
    """Monomials the linearity sweep of a passing composite from env.x down
    to w probes, counted on the full box's inverse vectors: those zero at
    every passive inverse coordinate (elements below w or not below x), and
    those at one on a single passive coordinate and zero on the rest, each
    times the exponents in [-laurent_bound, 0] at the atoms not below w."""
    poset = env.ring.poset
    nlau = sum(1 for a in env.atoms if not poset.leq(a, w))
    passive = [
        j
        for j, y in enumerate(env.inv_vars)
        if poset.leq(y, w) or not poset.leq(y, env.x)
    ]
    active = lifted = 0
    for vec in env._inverse_vectors(depth_bound):
        on = [vec[j] for j in passive if vec[j]]
        if not on:
            active += 1
        elif on == [1]:
            lifted += 1
    k = (laurent_bound + 1) ** nlau
    return k * active, k * lifted
