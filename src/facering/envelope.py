"""Finitely supported model of the graded injective hull at a poset element.

For an element x, basis monomials are pairs (laurent | inverse): an integer
Laurent exponent vector over the atoms below x and a non-negative exponent
vector over all remaining variables, encoding

    (prod_i t_i^{a_i})  (x)  (prod_z t_z^{-c_z}).

The ring acts through the comultiplication rule t -> t(x)1 + 1(x)t: an atom
below x shifts the Laurent part; any other variable acts by its face
projection on the Laurent part plus a contraction of the inverse part.  The
depth of a monomial is the total degree of its inverse part; the action
never raises depth, so depth-bounded spans are submodules and truncated
computations (annihilators in particular) are exact, not approximate.

The full hull has infinite-dimensional graded pieces as soon as the rank is
at least two; this module never materialises it.  Elements here are finite
combinations, every operation returns finite output, and all operations are
pure, so parallel evaluation over degrees or elements is safe.
"""

from __future__ import annotations

from itertools import product
from operator import add

from .linalg import kernel_basis
from .scalars import add_term


def _check_bound(value, what):
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")


def bounded_vectors(weights, budget):
    """Every non-negative integer vector v with sum(v[i] * weights[i]) at
    most budget, in lexicographic order.  Weights are positive integers."""
    _check_bound(budget, "bound")
    n = len(weights)
    out = []
    vec = [0] * n

    def rec(j, rem):
        if j == n:
            out.append(tuple(vec))
            return
        w = weights[j]
        for e in range(rem // w + 1):
            vec[j] = e
            rec(j + 1, rem - e * w)
        vec[j] = 0

    rec(0, budget)
    return out


def count_bounded_vectors(weights, budget):
    """``len(bounded_vectors(weights, budget))``, without enumerating."""
    _check_bound(budget, "bound")
    ways = [1] + [0] * budget  # ways[s]: vectors of weighted sum exactly s
    for w in weights:
        for s in range(w, budget + 1):
            ways[s] += ways[s - w]
    return sum(ways)


def _spread(n, positions, vectors):
    """Each vector written at the given positions of a length-n zero vector."""
    vec = [0] * n
    for vals in vectors:
        for p, v in zip(positions, vals):
            vec[p] = v
        yield tuple(vec)


class EnvelopeElement:
    """Finite combination of basis monomials of one envelope."""

    __slots__ = ("env", "terms")

    def __init__(self, env, terms):
        self.env = env
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, EnvelopeElement)
            and self.env is other.env
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.env is not other.env:
            raise ValueError("elements live in different envelopes")
        merged = dict(self.terms)
        for m, c in other.terms.items():
            add_term(merged, m, c)
        return EnvelopeElement(self.env, merged)

    def __neg__(self):
        return EnvelopeElement(self.env, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return EnvelopeElement(self.env, {})
        return EnvelopeElement(self.env, {m: v * c for m, v in self.terms.items()})

    def coefficient(self, mon):
        return self.terms.get(mon, self.env.ring.field.zero)

    def max_depth(self):
        return max((self.env.depth(m) for m in self.terms), default=0)

    def __repr__(self):
        return f"<at {self.env.x}: {self.env.format(self)}>"


class Envelope:
    """Envelope attached to one poset element, with its monomial calculus."""

    def __init__(self, ring, x):
        poset = ring.poset
        if x not in poset:
            raise ValueError(f"unknown element {x!r}")
        self.ring = ring
        self.x = x
        self.atoms = poset.atoms_below(x)
        self.natoms = len(self.atoms)
        aset = set(self.atoms)
        self.inv_vars = tuple(z for z in ring.variables if z not in aset)
        self.ninv = len(self.inv_vars)
        self._apos = {a: i for i, a in enumerate(self.atoms)}
        self._ipos = {z: j for j, z in enumerate(self.inv_vars)}
        self._acoord = tuple(ring.atom_index(a) for a in self.atoms)
        self._ideg = tuple(ring.variable_degree(z) for z in self.inv_vars)
        self._iweight = tuple(sum(d) for d in self._ideg)
        self._ileq = tuple(poset.leq(z, x) for z in self.inv_vars)
        bumps = []
        for z, under in zip(self.inv_vars, self._ileq):
            if under:
                zat = set(poset.atoms_below(z))
                bumps.append(tuple(1 if a in zat else 0 for a in self.atoms))
            else:
                bumps.append(None)
        self._ibump = tuple(bumps)
        self.unit_mon = ((0,) * self.natoms, (0,) * self.ninv)
        self._invcache = {}

    @classmethod
    def of(cls, ring, x):
        env = ring._envelopes.get(x)
        if env is None:
            env = ring._envelopes[x] = cls(ring, x)
        return env

    def __repr__(self):
        return f"Envelope({self.x!r})"

    # ---------- element constructors ----------

    def zero(self):
        return EnvelopeElement(self, {})

    def unit(self):
        return EnvelopeElement(self, {self.unit_mon: self.ring.field.one})

    def monomial_key(self, laurent=None, inverse=None):
        lau = [0] * self.natoms
        for name, e in (laurent or {}).items():
            if name not in self._apos:
                raise ValueError(f"{name!r} is not an atom below {self.x!r}")
            lau[self._apos[name]] = e
        inv = [0] * self.ninv
        for name, e in (inverse or {}).items():
            if name not in self._ipos:
                raise ValueError(f"{name!r} is not an inverse variable at {self.x!r}")
            if e < 0:
                raise ValueError("inverse exponents must be non-negative")
            inv[self._ipos[name]] = e
        return (tuple(lau), tuple(inv))

    def monomial(self, laurent=None, inverse=None, coeff=None):
        c = self.ring.field.one if coeff is None else coeff
        if not c:
            return self.zero()
        return EnvelopeElement(self, {self.monomial_key(laurent, inverse): c})

    def element(self, terms):
        return EnvelopeElement(self, {m: c for m, c in terms.items() if c})

    def embed_base(self, f):
        """Image of a polynomial supported on the atoms below x."""
        self.ring._check(f)
        out = {}
        for mon, c in f.terms.items():
            lau = [0] * self.natoms
            for k, e in enumerate(mon):
                if e:
                    name = self.ring.variables[k]
                    if name not in self._apos:
                        raise ValueError(
                            f"{name!r} does not survive at {self.x!r}"
                        )
                    lau[self._apos[name]] = e
            out[(tuple(lau), (0,) * self.ninv)] = c
        return EnvelopeElement(self, out)

    # ---------- degree and depth ----------

    def degree(self, mon):
        lau, inv = mon
        deg = [0] * self.ring.natoms
        for i, e in enumerate(lau):
            if e:
                deg[self._acoord[i]] += e
        for j, e in enumerate(inv):
            if e:
                d = self._ideg[j]
                for g, dg in enumerate(d):
                    if dg:
                        deg[g] -= e * dg
        return tuple(deg)

    def depth(self, mon):
        return sum(e * w for e, w in zip(mon[1], self._iweight))

    # ---------- ring action ----------

    def _step(self, z, mon):
        """The monomials that the variable z sends mon to, each with
        coefficient one.  An atom below x shifts the Laurent part; a
        variable below x adds its face bump to the Laurent part and
        contracts its inverse exponent; a variable not below x only
        contracts, so it kills every monomial with exponent zero there."""
        lau, inv = mon
        i = self._apos.get(z)
        if i is not None:
            return [(lau[:i] + (lau[i] + 1,) + lau[i + 1:], inv)]
        j = self._ipos[z]
        bump = self._ibump[j]
        out = []
        if bump is not None:
            out.append((tuple(map(add, lau, bump)), inv))
        e = inv[j]
        if e:
            out.append((lau, inv[:j] + (e - 1,) + inv[j + 1:]))
        return out

    def act_variable(self, z, elem):
        """Action of a single variable, monomial by monomial."""
        if z == self.ring.poset.bottom:
            raise ValueError("the bottom element carries no variable")
        if z not in self._apos and z not in self._ipos:
            raise ValueError(f"unknown variable {z!r}")
        out = {}
        for mon, c in elem.terms.items():
            for key in self._step(z, mon):
                add_term(out, key, c)
        return EnvelopeElement(self, out)

    def act_monomial(self, mon, elem):
        for k, e in enumerate(mon):
            if e:
                z = self.ring.variables[k]
                for _ in range(e):
                    elem = self.act_variable(z, elem)
                    if not elem.terms:
                        return elem
        return elem

    def act_polynomial(self, f, elem):
        self.ring._check(f)
        acc = {}
        for mon, c in f.terms.items():
            for key, v in self.act_monomial(mon, elem).terms.items():
                add_term(acc, key, v * c)
        return EnvelopeElement(self, acc)

    def act_tilde(self, z, elem):
        """Action of the straightened variable: a pure inverse-part shift,
        killing monomials whose z-exponent is zero."""
        if z not in self._ipos:
            raise ValueError(f"{z!r} is not an inverse variable at {self.x!r}")
        j = self._ipos[z]
        out = {}
        for (lau, inv), c in elem.terms.items():
            e = inv[j]
            if e > 0:
                # injective on the surviving monomials, so no collisions
                out[(lau, inv[:j] + (e - 1,) + inv[j + 1:])] = c
        return EnvelopeElement(self, out)

    def act_laurent(self, shift, elem):
        """Multiplication by a Laurent unit on the atom part."""
        out = {}
        for (lau, inv), c in elem.terms.items():
            out[(tuple(a + s for a, s in zip(lau, shift)), inv)] = c
        return EnvelopeElement(self, out)

    # ---------- coordinates a descent moves ----------

    def active_positions(self, w):
        """The coordinates a descent from x down to w moves, as ascending
        (Laurent positions, inverse positions): the atoms of x not below w
        and the elements below x but not below w.

        A cover step x > z copies the inverse exponents of the elements it
        does not touch and shifts the Laurent exponents of the atoms it keeps
        by an amount fixed by the removed atom's exponent and the inverse
        exponents of the elements below x but not below z.  So along any
        chain from x down to w each other (passive) coordinate comes out
        translated by its own value: a composite's image of a monomial is its
        image of the active projection (passive coordinates zero), translated.
        """
        poset = self.ring.poset
        if not poset.leq(w, self.x):
            raise ValueError(f"{w!r} is not below {self.x!r}")
        lpos = tuple(i for i, a in enumerate(self.atoms) if not poset.leq(a, w))
        ipos = tuple(
            j
            for j, y in enumerate(self.inv_vars)
            if self._ileq[j] and not poset.leq(y, w)
        )
        return lpos, ipos

    # ---------- monomial enumeration ----------

    def _inverse_vectors(self, depth_bound, positions=None):
        """Inverse vectors of depth at most depth_bound that are zero off the
        inverse positions (all by default), in lexicographic order."""
        key = (depth_bound, positions)
        cached = self._invcache.get(key)
        if cached is None:
            pos = range(self.ninv) if positions is None else positions
            vecs = bounded_vectors([self._iweight[j] for j in pos], depth_bound)
            cached = self._invcache[key] = tuple(_spread(self.ninv, pos, vecs))
        return cached

    def monomials_of_degree(self, a, depth_max, depth_min=0):
        """All basis monomials of the given degree with bounded depth.

        The inverse part is searched directly; the Laurent part is then
        forced by the degree.  Empty whenever the degree has a positive
        entry outside the atoms below x.
        """
        _check_bound(depth_max, "depth bound")
        n = self.ring.natoms
        a = tuple(a)
        if len(a) != n:
            raise ValueError("degree vector has the wrong length")
        acoords = set(self._acoord)
        free = [g for g in range(n) if g not in acoords]
        target = [-a[g] for g in free]
        if any(t < 0 for t in target):
            return []
        dvecs = [tuple(self._ideg[j][g] for g in free) for j in range(self.ninv)]
        out = []
        vec = [0] * self.ninv

        def rec(j, budget, rem):
            if j == self.ninv:
                if all(r == 0 for r in rem):
                    depth = depth_max - budget
                    if depth >= depth_min:
                        lau = tuple(
                            a[g] + sum(
                                vec[k] * self._ideg[k][g]
                                for k in range(self.ninv)
                                if vec[k]
                            )
                            for g in self._acoord
                        )
                        out.append((lau, tuple(vec)))
                return
            w = self._iweight[j]
            dv = dvecs[j]
            top = budget // w
            for t, d in zip(rem, dv):
                if d:
                    top = min(top, t // d)
            for e in range(top + 1):
                vec[j] = e
                rec(j + 1, budget - e * w, [t - e * d for t, d in zip(rem, dv)])
            vec[j] = 0

        rec(0, depth_max, target)
        out.sort()
        return out

    def monomial_box(self, laurent_bound, depth_bound=0, lpos=None, ipos=None):
        """Iterate the basis monomials with Laurent exponents in
        [-laurent_bound, laurent_bound] and depth at most depth_bound: inverse
        part outermost, each part in lexicographic order.

        Given Laurent positions lpos and inverse positions ipos (ascending
        tuples), only the monomials that are zero off them, in the same
        order.
        """
        _check_bound(laurent_bound, "Laurent bound")
        invs = self._inverse_vectors(depth_bound, ipos)
        lpos = range(self.natoms) if lpos is None else lpos
        rng = range(-laurent_bound, laurent_bound + 1)
        return (
            (lau, inv)
            for inv in invs
            for lau in _spread(self.natoms, lpos, product(rng, repeat=len(lpos)))
        )

    def box_size(self, laurent_bound, depth_bound=0, lpos=None, ipos=None):
        """Number of monomials ``monomial_box`` yields at the same arguments."""
        _check_bound(laurent_bound, "Laurent bound")
        nlau = self.natoms if lpos is None else len(lpos)
        pos = range(self.ninv) if ipos is None else ipos
        weights = [self._iweight[j] for j in pos]
        return (2 * laurent_bound + 1) ** nlau * count_bounded_vectors(
            weights, depth_bound
        )

    # ---------- distinguished subspaces ----------

    def L_defect(self, elem):
        """First monomial outside the positive-depth non-negative part."""
        for mon in sorted(elem.terms):
            if self.depth(mon) < 1 or any(d < 0 for d in self.degree(mon)):
                return mon
        return None

    def in_L(self, elem):
        return self.L_defect(elem) is None

    def in_base(self, elem):
        """Whether the element lies in the embedded polynomial quotient
        (depth zero, no negative Laurent exponents)."""
        return all(
            self.depth(m) == 0 and min(m[0], default=0) >= 0 for m in elem.terms
        )

    # ---------- solvers ----------

    def annihilator_basis(self, a, depth_bound):
        """Basis of the degree-a elements of bounded depth killed by every
        defining relation, by exact linear algebra on the finite slice.

        Truncation is exact because the action never raises depth.  The
        rows are built on the monomial tuples: each term of each relation
        (``PolyRing.relation_terms``) walks every slice monomial through
        ``_step``, one variable at a time, and the integer number of paths
        into each target monomial, times the term's sign, is summed per
        (relation, target) row.  The rows stay integers: ``kernel_basis``
        reduces them into the field before it eliminates.

        A term that contracts a variable not below x more times than the
        monomial's inverse exponent there is skipped.  That is exact: such
        a variable has no face projection at x, so its action on a monomial
        is the contraction alone, and contracting e times kills every
        monomial whose exponent there is below e.  Nothing is approximated.
        The kernel is read off the reduced echelon form, which depends only
        on the row space and the column order, so neither the skip nor the
        order of the rows changes the returned basis.
        """
        a = tuple(a)
        if any(v < 0 for v in a):
            raise ValueError("degree must be componentwise non-negative")
        mons, rows = self._annihilator_rows(a, depth_bound)
        if not mons:
            return []
        basis = kernel_basis(rows, len(mons), self.ring.field)
        return [
            EnvelopeElement(self, {mons[k]: v for k, v in enumerate(vec) if v})
            for vec in basis
        ]

    def _annihilator_rows(self, a, depth_bound):
        """The degree-a slice monomials of depth at most depth_bound, and the
        integer rows whose kernel ``annihilator_basis`` returns, one per
        (relation, target) with a nonzero path count."""
        mons = self.monomials_of_degree(a, depth_max=depth_bound)
        if not mons:
            return mons, []
        names = self.ring.variables
        # ring index -> inverse position of each variable that only contracts
        dead = {}
        for k, z in enumerate(names):
            j = self._ipos.get(z)
            if j is not None and not self._ileq[j]:
                dead[k] = j
        # those at zero on the whole slice drop every term they are in
        top = [max(e) for e in zip(*(inv for _, inv in mons))]
        broke = {k for k, j in dead.items() if not top[j]}
        terms = []
        for gi, ks, c in self.ring.relation_terms():
            if broke.isdisjoint(ks):
                # (inverse position, times contracted) of its dead variables
                need = {}
                for k in ks:
                    if k in dead:
                        need[dead[k]] = need.get(dead[k], 0) + 1
                zs = [names[k] for k in ks]
                terms.append((gi, zs[0], zs[1:], c, tuple(need.items())))
        step = self._step
        rows = {}
        for col, mon in enumerate(mons):
            inv = mon[1]
            counts = {}
            for gi, first, rest, c, need in terms:
                for j, e in need:
                    if inv[j] < e:
                        break
                else:
                    ends = step(first, mon)
                    for z in rest:
                        ends = [t for m in ends for t in step(z, m)]
                    for t in ends:
                        key = (gi, t)
                        counts[key] = counts.get(key, 0) + c
            for key, n in counts.items():
                if n:
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = [0] * len(mons)
                    row[col] = n
        return mons, list(rows.values())

    def essential_witness(self, elem):
        """Polynomial f with f * elem a nonzero member of the embedded
        polynomial quotient.

        Repeatedly multiplies by the straightened variable with the largest
        inverse exponent (each pass strictly lowers the maximal depth and
        kills nothing outright), then clears negative Laurent exponents with
        a plain atom monomial.
        """
        if elem.is_zero():
            raise ValueError("no witness for the zero element")
        ring = self.ring
        f = ring.one()
        cur = elem
        while cur.max_depth() > 0:
            best = None
            for (_, inv) in cur.terms:
                for j, e in enumerate(inv):
                    if e and (best is None or e > best[0] or (e == best[0] and j < best[1])):
                        best = (e, j)
            z = self.inv_vars[best[1]]
            f = ring.tilde_of(self.x, z) * f
            cur = self.act_tilde(z, cur)
        if self.natoms:
            mins = [min(lau[i] for (lau, _) in cur.terms) for i in range(self.natoms)]
            shift = {self.atoms[i]: -m for i, m in enumerate(mins) if m < 0}
            if shift:
                f = f * ring.monomial(shift)
        result = self.act_polynomial(f, elem)
        if not (result and self.in_base(result)):
            raise RuntimeError("essential witness does not land in the base")
        return f

    # ---------- presentation ----------

    def format(self, elem):
        if not elem.terms:
            return "0"
        bits = []
        for mon in sorted(elem.terms, reverse=True):
            c = elem.terms[mon]
            lau, inv = mon
            lpart = "*".join(
                f"t[{a}]^{e}" if e != 1 else f"t[{a}]"
                for a, e in zip(self.atoms, lau)
                if e
            ) or "1"
            ipart = "*".join(
                f"t[{z}]^{-e}" for z, e in zip(self.inv_vars, inv) if e
            ) or "1"
            bits.append(f"({self.ring.field.format(c)})*({lpart} (x) {ipart})")
        return " + ".join(bits)

    def element_to_json(self, elem):
        terms = []
        for mon in sorted(elem.terms):
            lau, inv = mon
            terms.append(
                {
                    "laurent": {a: e for a, e in zip(self.atoms, lau) if e},
                    "inverse": {z: e for z, e in zip(self.inv_vars, inv) if e},
                    "coeff": self.ring.field.format(elem.terms[mon]),
                }
            )
        return {"ambient": self.x, "terms": terms}
