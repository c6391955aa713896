"""Independent checks on the program's outputs.

Nothing here calls into facering to compute an expected value.  The
combinatorics come from the {"elements", "covers"} description the benchmark
built itself (see Faces), and every expected value is derived from the
mathematics: the comultiplication action expanded over subsets of variable
occurrences, the binomial-transfer formula for cover maps, incidence signs
read off atom positions, annihilator dimensions, Euler characteristics and
textbook reduced cohomology.  Program objects are only read through their
public attributes (an envelope's atom and inverse-variable order, a
polynomial's terms) so that outputs can be compared.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


class Failures:
    """Collects failed checks; a run is correct when none were recorded."""

    def __init__(self):
        self.messages = []

    def require(self, ok, what):
        if not ok:
            self.messages.append(what)
        return ok


class Faces:
    """Order data of a poset description, derived from its cover list."""

    def __init__(self, obj):
        self.elements = tuple(obj["elements"])
        lower = {x: [] for x in self.elements}
        for u, l in obj["covers"]:
            lower[u].append(l)
        self.lower = {x: tuple(ls) for x, ls in lower.items()}
        (self.bottom,) = [x for x in self.elements if not lower[x]]
        self.atoms = tuple(x for x in self.elements if self.lower[x] == (self.bottom,))
        below = {}

        def down(x):
            if x not in below:
                acc = {x}
                for l in self.lower[x]:
                    acc |= down(l)
                below[x] = frozenset(acc)
            return below[x]

        for x in self.elements:
            down(x)
        self.below = below
        self.atom_set = {
            x: frozenset(a for a in self.atoms if a in below[x]) for x in self.elements
        }
        self.rank = {x: len(self.atom_set[x]) for x in self.elements}
        self.variables = tuple(x for x in self.elements if x != self.bottom)
        self.max_rank = max(self.rank.values())

    def leq(self, a, b):
        return a in self.below[b]

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    def rank_counts(self):
        counts = {}
        for x in self.elements:
            r = self.rank[x]
            if r:
                counts[r] = counts.get(r, 0) + 1
        return counts

    def sign(self, u, l):
        """(-1)**(position of the removed atom among the atoms under u)."""
        under = [a for a in self.atoms if a in self.atom_set[u]]
        (gone,) = self.atom_set[u] - self.atom_set[l]
        return -1 if under.index(gone) % 2 else 1

    def diamonds(self):
        """Rank-2 intervals [w < x] with their middle elements."""
        out = []
        for x in self.elements:
            for w in self.below[x]:
                if self.rank[w] == self.rank[x] - 2:
                    mids = tuple(
                        z
                        for z in self.below[x]
                        if self.rank[z] == self.rank[x] - 1 and self.leq(w, z)
                    )
                    out.append((w, x, mids))
        return out

    def degree(self, exps):
        """Atom degree of a monomial given as {variable: exponent}."""
        deg = {a: 0 for a in self.atoms}
        for z, e in exps.items():
            for a in self.atom_set[z]:
                deg[a] += e
        return tuple(deg[a] for a in self.atoms)

    def inverse_count(self, x, depth):
        """Number of inverse parts of depth at most `depth` at x: exponent
        vectors on the variables other than the atoms under x, weighted by
        rank."""
        weights = [
            self.rank[z]
            for z in self.variables
            if not (self.rank[z] == 1 and z in self.atom_set[x])
        ]
        ways = [1] + [0] * depth
        for w in weights:
            for t in range(w, depth + 1):
                ways[t] += ways[t - w]
        return sum(ways)

    def box_size(self, x, laurent, depth):
        return (2 * laurent + 1) ** self.rank[x] * self.inverse_count(x, depth)


# ---------- the envelope action, expanded over subsets ----------


def subset_action(faces, env, mon_exps, terms):
    """Action of a monomial (exponent list over faces.variables) on an
    envelope element {(laurent, inverse): coeff}, by expanding the
    comultiplication over every subset of variable occurrences: occurrences
    in the subset act on the Laurent part through their atoms (and kill the
    term when they are not under the ambient element), the others contract
    the inverse part."""
    x = env.x
    apos = {a: i for i, a in enumerate(env.atoms)}
    ipos = {z: j for j, z in enumerate(env.inv_vars)}
    occ = [z for z, e in zip(faces.variables, mon_exps) for _ in range(e)]
    out = {}
    for (lau, inv), c in terms.items():
        for r in range(len(occ) + 1):
            for left in combinations(range(len(occ)), r):
                lau2, inv2, dead = list(lau), list(inv), False
                for i, z in enumerate(occ):
                    if i in left:
                        if not faces.leq(z, x):
                            dead = True
                            break
                        for a in faces.atom_set[z]:
                            lau2[apos[a]] += 1
                    else:
                        j = ipos.get(z)
                        if j is None or inv2[j] == 0:
                            dead = True
                            break
                        inv2[j] -= 1
                if dead:
                    continue
                key = (tuple(lau2), tuple(inv2))
                s = out.get(key)
                s = c if s is None else s + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def subset_poly_action(faces, env, poly_terms, terms):
    out = {}
    for mon, c in poly_terms.items():
        for key, v in subset_action(faces, env, mon, terms).items():
            s = out.get(key)
            s = v * c if s is None else s + v * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def in_base(terms):
    """Depth zero and no negative Laurent exponent."""
    return all(not any(inv) and min(lau, default=0) >= 0 for lau, inv in terms)


# ---------- cover maps ----------


def cover_image(faces, char, upper, lower, src_atoms, src_inv, tgt_atoms, tgt_inv, mon):
    """Image of one source monomial under the normalized cover map, by the
    binomial-transfer formula: up to -a_r units of the removed atom's
    exponent move onto the inverse exponents of the faces of `upper` that
    contain it, weighted by C(b_z + d_z, d_z), and each moved unit also
    raises the kept atoms of that face.  Coefficients are returned as
    decimal strings, reduced modulo the characteristic when it is positive."""
    lau, inv = mon
    (r,) = faces.atom_set[upper] - faces.atom_set[lower]
    a_r = lau[src_atoms.index(r)]
    if a_r > 0:
        return {}
    zs = [
        z
        for z in src_inv
        if faces.leq(z, upper) and not faces.leq(z, lower)
    ]
    zpos = [src_inv.index(z) for z in zs]
    out = {}

    def emit(d):
        coeff = 1
        for j, dz in zip(zpos, d):
            coeff *= comb(inv[j] + dz, dz)
        tl = []
        for a in tgt_atoms:
            e = lau[src_atoms.index(a)]
            e += sum(dz for z, dz in zip(zs, d) if a in faces.atom_set[z])
            tl.append(e)
        ti = []
        for z in tgt_inv:
            if z == r:
                ti.append(-(a_r + sum(d)))
            elif z in zs:
                ti.append(inv[src_inv.index(z)] + d[zs.index(z)])
            else:
                ti.append(inv[src_inv.index(z)])
        if char:
            coeff %= char
        if coeff:
            out[(tuple(tl), tuple(ti))] = str(coeff)

    def rec(prefix, budget):
        if len(prefix) == len(zs):
            emit(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), budget - e)

    rec((), -a_r)
    return out


# ---------- complexes ----------


def euler_defect(faces, a, dims):
    """Alternating sum of the slice's cohomology minus that of its terms
    (ranks whose atom set contains the support of a); zero when the Euler
    characteristic identity holds."""
    supp = {faces.atoms[g] for g, v in enumerate(a) if v > 0}
    terms = 0
    for x in faces.elements:
        if supp <= faces.atom_set[x]:
            terms += (-1) ** faces.rank[x]
    coh = sum((-1) ** (-i) * d for i, d in dims.items())
    return coh - terms


def textbook_reduced(family, field_char, max_rank):
    """Reduced cohomology at degree zero, with the class of H~^k at index
    -(k+1), for the generated families."""
    dims = {-i: 0 for i in range(max_rank + 1)}
    if family.startswith("bd_simplex"):
        dims[-max_rank] = 1
    elif family == "torus7":
        dims[-2], dims[-3] = 2, 1
    elif family == "rp2_6":
        if field_char == 2:
            dims[-2], dims[-3] = 1, 1
    elif family.startswith("glued"):
        dims[-3] = int(family[len("glued"):]) - 1
    else:
        raise KeyError(family)
    return dims


# ---------- straightening ----------


def is_chain_support(faces, mon_exps):
    support = [z for z, e in zip(faces.variables, mon_exps) if e]
    return all(faces.comparable(p, q) for p, q in combinations(support, 2))


def mon_degree(faces, mon_exps):
    return faces.degree({z: e for z, e in zip(faces.variables, mon_exps) if e})
