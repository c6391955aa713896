"""Shared test utilities: random generators and independent mini-oracles."""

from itertools import combinations, product

from facering import Envelope, PolyRing, SimplicialPoset, bundled_poset, tau_coefficient
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
    instead of iterating single-variable actions."""
    ring = env.ring
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
                    if z in env._apos:
                        lau2[env._apos[z]] += 1
                    elif env._ileq[env._ipos[z]]:
                        for t, b in enumerate(env._ibump[env._ipos[z]]):
                            lau2[t] += b
                    else:
                        dead = True
                        break
                if dead:
                    continue
                # contraction factor on the inverse part
                inv2 = list(inv)
                for i in range(m):
                    if i in left_set:
                        continue
                    z = occurrences[i]
                    if z not in env._ipos:
                        dead = True
                        break
                    j = env._ipos[z]
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
                            add_term(acc, t, c * (s1 * s2))
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
