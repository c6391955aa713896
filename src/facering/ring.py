"""Sparse exact polynomials on the variable set of a simplicial poset.

One variable per non-bottom element, graded by atom support.  Exponent
vectors are dense tuples; the posets handled here are small, so dense keys
beat clever sparse ones.  Besides plain arithmetic this module carries the
defining quadratic relations of the face quotient, the straightened
variables relative to an ambient element, prime generator sets per element,
and a rewriting normal form onto chain-supported monomials that decides
ideal membership.

Polynomials are immutable values and all operations are pure functions, so
independent inputs can be evaluated concurrently.
"""

from __future__ import annotations

import re
import weakref
from itertools import groupby
from operator import itemgetter

from .poset import _Index
from .scalars import QQ, Combination, add_term, check_non_negative


class Polynomial(Combination):
    """Sparse polynomial: terms map exponent tuples to nonzero scalars.
    A ``Combination`` that also multiplies, and hashes by its terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _parent(self):
        return self.ring

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self.ring._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_term(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        return Polynomial(self.ring, out)

    def multidegree(self):
        """Common degree of all terms; None for the zero polynomial."""
        if not self.terms:
            return None
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous polynomial has no multidegree")
        return degs.pop()

    def __str__(self):
        return self.ring.format(self)

    def __repr__(self):
        return f"Polynomial({self.ring.format(self)})"


_FACTOR_RE = re.compile(r"t\[([^\]]+)\](?:\^(\d+))?$")


class PolyRing:
    """The ambient polynomial ring on a simplicial poset, atom-graded."""

    def __init__(self, poset, field=QQ):
        self.poset = poset
        self.field = field
        self.variables = poset.proper_elements
        self.nvars = len(self.variables)
        self._vidx = _Index("unknown variable", self.variables)
        self.natoms = len(poset.atoms)
        self._aidx = _Index("unknown atom", poset.atoms)
        self._vdeg = tuple(
            tuple(1 if a in poset.atom_set(x) else 0 for a in poset.atoms)
            for x in self.variables
        )
        self._vrank = tuple(poset.rank_of(x) for x in self.variables)
        self._zero_mon = (0,) * self.nvars

        # rewrite data of each incomparable pair k1 < k2, shared by every
        # ring on the poset: (meet index or None, join indices)
        self._rewrite = poset.join_table()

        self._relation_terms = None
        # weak: envelopes and cover data point back at the ring, so a dropped
        # ring is freed by reference counting, not by the cyclic collector
        self._envelopes = weakref.WeakValueDictionary()
        self._covers = weakref.WeakValueDictionary()

    def __repr__(self):
        return f"PolyRing({len(self.variables)} variables over {self.field!r})"

    def _check(self, f):
        if not isinstance(f, Polynomial) or f.ring is not self:
            raise ValueError("not a polynomial of this ring")

    # ---------- constructors ----------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {self._zero_mon: self.field.one})

    def variable(self, name):
        return self.term(self.field.one, {name: 1})

    def monomial(self, exps):
        return self.term(self.field.one, exps)

    def term(self, coeff, exps):
        """coeff times the monomial with these exponents by variable name.
        ``ValueError`` unless coeff is a scalar of the ring's field and each
        exponent is a non-negative integer of a variable of the ring."""
        if not self.field.is_scalar(coeff):
            raise ValueError(f"{coeff!r} is not a scalar of {self.field!r}")
        check_non_negative(tuple(exps.values()), "exponents")
        vec = [0] * self.nvars
        for name, e in exps.items():
            vec[self._vidx[name]] += e
        if not coeff:
            return self.zero()
        return Polynomial(self, {tuple(vec): coeff})

    # ---------- grading ----------

    def atom_index(self, a):
        return self._aidx[a]

    def variable_degree(self, name):
        """Degree vector of one variable: the indicator of its atoms."""
        if name == self.poset.bottom:
            raise ValueError("the bottom element carries no variable")
        return self._vdeg[self._vidx[name]]

    def monomial_degree(self, mon):
        deg = [0] * self.natoms
        for k, e in enumerate(mon):
            if e:
                d = self._vdeg[k]
                for g in range(self.natoms):
                    if d[g]:
                        deg[g] += e * d[g]
        return tuple(deg)

    def degree_sum(self):
        """Sum of the degrees of all variables (the canonical shift vector)."""
        total = [0] * self.natoms
        for d in self._vdeg:
            for g in range(self.natoms):
                total[g] += d[g]
        return tuple(total)

    # ---------- defining relations and friends ----------

    def generators(self):
        """Defining relations, one per incomparable variable pair.

        t_x t_y - t_{x^y} * sum of t_z over the join set; the meet factor is
        dropped when the meet is the bottom, and an empty join set leaves the
        bare product.  Built from ``relation_terms`` on each call; relations
        with the same meet and a common join share that tail, one tuple per
        call.  A join lies strictly above the pair and their meet, so no two
        terms share a monomial.
        """
        return self._polynomials(self.relation_terms())

    def relation_terms(self):
        """Every term of every defining relation, as (generator index, the
        variable indices the term multiplies by, integer coefficient), in
        the order of ``generators()``.

        Read once per ring off the join table: +1 on the product of the pair
        and -1 on each tail, in every field.  A variable index appears once
        per unit of its exponent, in ascending order.
        """
        if self._relation_terms is None:
            out = []
            for gi, ((k1, k2), (meet_idx, joins)) in enumerate(self._rewrite.items()):
                out.append((gi, (k1, k2), 1))
                for z in joins:
                    ks = (z,) if meet_idx is None else tuple(sorted((meet_idx, z)))
                    out.append((gi, ks, -1))
            self._relation_terms = tuple(out)
        return self._relation_terms

    def _polynomials(self, terms):
        """Polynomials of (generator index, variable indices, +1 or -1)
        terms, one per run of equal generator indices, in order.  Terms with
        the same variables share one exponent tuple per call."""
        one = self.field.one
        coeff = {1: one, -1: -one}
        mons = {}
        out = []
        last = None
        for gi, ks, c in terms:
            if gi != last:
                last = gi
                out.append({})
            mon = mons.get(ks)
            if mon is None:
                vec = [0] * self.nvars
                for k in ks:
                    vec[k] += 1
                mon = mons[ks] = tuple(vec)
            out[-1][mon] = coeff[c]
        return tuple(Polynomial(self, t) for t in out)

    def prime_generators(self, x):
        """Generators of the graded prime attached to x: the variables not
        under x, plus the defining relations with those variables killed,
        each distinct one once, in first-seen order."""
        self.poset.rank_of(x)  # ValueError on an unknown x, even with no variables
        killed = tuple(
            k for k, z in enumerate(self.variables) if not self.poset.leq(z, x)
        )
        kset = set(killed)
        kept = [t for t in self.relation_terms() if kset.isdisjoint(t[1])]
        reduced = dict.fromkeys(
            tuple((ks, c) for _, ks, c in group)
            for _, group in groupby(kept, itemgetter(0))
        )
        return tuple(self.variables[k] for k in killed), self._polynomials(
            (i, ks, c) for i, group in enumerate(reduced) for ks, c in group
        )

    def face_projection(self, x, f):
        """Image of f under the quotient onto the face at x: variables not
        under x go to zero, the rest to the product of their atoms."""
        self._check(f)
        poset = self.poset
        poset.rank_of(x)  # ValueError on an unknown x, even for a constant f
        out = {}
        for mon, c in f.terms.items():
            vec = [0] * self.nvars
            for k, e in enumerate(mon):
                if not e:
                    continue
                z = self.variables[k]
                if not poset.leq(z, x):
                    break
                for a in poset.atoms_below(z):
                    vec[self._vidx[a]] += e
            else:
                add_term(out, tuple(vec), c)
        return Polynomial(self, out)

    def tilde_of(self, x, z):
        """Straightened variable relative to the ambient element x."""
        t = self.variable(z)
        if self.poset.leq(z, x) and self.poset.rank_of(z) >= 2:
            return t - self.monomial({a: 1 for a in self.poset.atoms_below(z)})
        return t

    def f_U(self, x, U):
        """Sum of straightened variables over the join set of a set of atoms
        under x; a member of the defining ideal."""
        U = tuple(U)
        ax = set(self.poset.atoms_below(x))
        if len(U) < 2:
            raise ValueError("need at least two atoms")
        if not set(U) <= ax:
            raise ValueError("atoms must lie under the ambient element")
        out = self.zero()
        for z in self.poset.join_set(U):
            out = out + self.tilde_of(x, z)
        return out

    def g_pair(self, x, U, z1, z2):
        """Quadratic ideal member attached to two join-set elements, the
        first below the ambient element and the second not."""
        U = tuple(U)
        js = self.poset.join_set(U)
        if z1 == z2 or z1 not in js or z2 not in js:
            raise ValueError("need two distinct members of the join set")
        if not self.poset.leq(z1, x):
            raise ValueError("first element must lie under the ambient element")
        atom_prod = self.monomial({a: 1 for a in U})
        return self.tilde_of(x, z1) * self.tilde_of(x, z2) + self.tilde_of(x, z2) * atom_prod

    # ---------- straightening normal form ----------

    def is_chain_monomial(self, mon):
        return self._first_incomparable_pair(mon) is None

    def _first_incomparable_pair(self, mon):
        support = [k for k, e in enumerate(mon) if e]
        for a, i in enumerate(support):
            for j in support[a + 1:]:
                if (i, j) in self._rewrite:
                    return (i, j)
        return None

    def _last_incomparable_pair(self, mon):
        support = [k for k, e in enumerate(mon) if e]
        best = None
        for a, i in enumerate(support):
            for j in support[a + 1:]:
                if (i, j) in self._rewrite:
                    best = (i, j)
        return best

    def _weight(self, mon):
        # strictly increases at every rewrite (meet/join spread the ranks at
        # fixed atom degree), and is bounded in each multidegree
        return sum(e * r * r for e, r in zip(mon, self._vrank))

    def straighten(self, f, strategy="max-monomial"):
        nf, _ = self.straighten_stats(f, strategy)
        return nf

    def straighten_stats(self, f, strategy="max-monomial"):
        """Normal form onto chain-supported monomials plus the rewrite count.

        Rewrites one incomparable product at a time using the defining
        relations; the result differs from f by an ideal member and is a
        fixed point of the procedure.
        """
        self._check(f)
        if strategy not in ("max-monomial", "min-monomial"):
            raise ValueError(f"unknown strategy {strategy!r}")
        work = dict(f.terms)
        steps = 0
        maxfirst = strategy == "max-monomial"
        find_pair = (
            self._first_incomparable_pair if maxfirst else self._last_incomparable_pair
        )
        while True:
            picked = None
            for mon in sorted(work, reverse=maxfirst):
                pair = find_pair(mon)
                if pair is not None:
                    picked = (mon, pair)
                    break
            if picked is None:
                break
            mon, (k1, k2) = picked
            coeff = work.pop(mon)
            steps += 1
            meet_idx, joins = self._rewrite[(k1, k2)]
            base = list(mon)
            base[k1] -= 1
            base[k2] -= 1
            if meet_idx is not None:
                base[meet_idx] += 1
            w0 = self._weight(mon)
            for z in joins:
                out = list(base)
                out[z] += 1
                key = tuple(out)
                if self._weight(key) <= w0:
                    raise RuntimeError(
                        "rewrite does not raise the weight; straightening would not terminate"
                    )
                add_term(work, key, coeff)
        return Polynomial(self, work), steps

    def is_ideal_member(self, f):
        """Membership in the defining ideal, via the straightening normal
        form (chain monomials are a basis of the quotient)."""
        return self.straighten(f).is_zero()

    # ---------- text and JSON ----------

    def parse(self, text):
        """Parse "c * t[name]^e * ..." terms joined by '+' and '-'."""
        s = text.replace("−", "-").strip()
        if not s:
            raise ValueError("empty polynomial text")
        chunks = []
        sign, buf, depth = 1, [], 0
        for ch in s:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if depth == 0 and ch in "+-":
                if "".join(buf).strip():
                    chunks.append((sign, "".join(buf)))
                elif chunks:
                    raise ValueError(f"dangling sign in {text!r}")
                sign = 1 if ch == "+" else -1
                buf = []
            else:
                buf.append(ch)
        if not "".join(buf).strip():
            raise ValueError(f"dangling sign in {text!r}")
        chunks.append((sign, "".join(buf)))

        total = {}
        for sign, body in chunks:
            coeff = self.field.one
            vec = [0] * self.nvars
            for factor in body.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"empty factor in {text!r}")
                m = _FACTOR_RE.fullmatch(factor)
                if m:
                    vec[self._vidx[m.group(1)]] += int(m.group(2) or 1)
                else:
                    coeff = coeff * self.field.parse(factor)
            if sign < 0:
                coeff = -coeff
            add_term(total, tuple(vec), coeff)
        return Polynomial(self, total)

    def _format_monomial(self, mon):
        return "*".join(
            f"t[{self.variables[k]}]^{e}" if e > 1 else f"t[{self.variables[k]}]"
            for k, e in enumerate(mon)
            if e
        )

    def format(self, f):
        self._check(f)
        if not f.terms:
            return "0"
        parts = []
        for mon in sorted(f.terms, reverse=True):
            c = f.terms[mon]
            body = self._format_monomial(mon)
            # residues carry no sign: over F_p every term is added
            neg = not self.field.char and c < 0
            coeff = self.field.format(-c if neg else c)
            lead = (coeff + "*" + body) if (body and coeff != "1") else (body or coeff)
            if not parts:
                parts.append(("-" if neg else "") + lead)
            else:
                parts.append(("- " if neg else "+ ") + lead)
        return " ".join(parts)

    def poly_to_json(self, f):
        self._check(f)
        return {
            "terms": [
                {
                    "coeff": self.field.format(f.terms[mon]),
                    "monomial": {
                        self.variables[k]: e for k, e in enumerate(mon) if e
                    },
                }
                for mon in sorted(f.terms, reverse=True)
            ]
        }
