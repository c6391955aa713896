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

from itertools import combinations, product
from operator import add

from .linalg import kernel_basis
from .poset import _Index
from .scalars import Combination, add_term, check_integers, check_non_negative


def bounded_vectors(weights, budget):
    """Every non-negative integer vector v with sum(v[i] * weights[i]) at
    most budget, in lexicographic order.  Weights are positive integers."""
    check_non_negative((budget,), "bound")
    vecs = [((), budget)]
    for w in weights:
        vecs = [(v + (e,), r - e * w) for v, r in vecs for e in range(r // w + 1)]
    return [v for v, _ in vecs]


def count_bounded_vectors(weights, budget):
    """``len(bounded_vectors(weights, budget))``, without enumerating."""
    check_non_negative((budget,), "bound")
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


def degree_vector(a, natoms):
    """a as a tuple of natoms entries; ``ValueError`` on any other length.
    Each caller checks the entries once, with ``check_integers`` or
    ``check_non_negative``."""
    a = tuple(a)
    if len(a) != natoms:
        raise ValueError(
            f"degree vector has the wrong length: needs {natoms} entries, got {len(a)}"
        )
    return a


class EnvelopeElement(Combination):
    """Finite combination of basis monomials of one envelope; a
    ``Combination``, not hashable."""

    __slots__ = ("env", "terms")

    def __init__(self, env, terms):
        self.env = env
        self.terms = terms

    def _parent(self):
        return self.env

    def max_depth(self):
        return max((self.env.depth(m) for m in self.terms), default=0)

    def __repr__(self):
        return f"<at {self.env.x}: {self.env.format(self)}>"


class Envelope:
    """Envelope attached to one poset element, with its monomial calculus."""

    def __init__(self, ring, x):
        poset = ring.poset
        self.ring = ring
        self.field = ring.field
        self.x = x
        self.atoms = poset.atoms_below(x)
        self.natoms = len(self.atoms)
        aset = set(self.atoms)
        self.inv_vars = tuple(z for z in ring.variables if z not in aset)
        self.ninv = len(self.inv_vars)
        self._apos = _Index(f"no atom below {x!r} named", self.atoms)
        self._ipos = _Index(f"no inverse variable at {x!r} named", self.inv_vars)
        self._acoord = tuple(ring.atom_index(a) for a in self.atoms)
        self._free = tuple(g for g in range(ring.natoms) if g not in self._acoord)
        self._ideg = tuple(ring.variable_degree(z) for z in self.inv_vars)
        self._iweight = tuple(sum(d) for d in self._ideg)
        self._ileq = tuple(poset.leq(z, x) for z in self.inv_vars)
        self._ibump = tuple(
            tuple(int(a in poset.atom_set(z)) for a in self.atoms) if under else None
            for z, under in zip(self.inv_vars, self._ileq)
        )
        self.unit_mon = ((0,) * self.natoms, (0,) * self.ninv)
        self._kernels = {}  # depth bound -> degree-zero annihilator
        self._table = None

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
        return EnvelopeElement(self, {self.unit_mon: self.field.one})

    def monomial_key(self, laurent=None, inverse=None):
        laurent, inverse = laurent or {}, inverse or {}
        check_integers(tuple(laurent.values()), "exponents")
        check_non_negative(tuple(inverse.values()), "inverse exponents")
        lau = [0] * self.natoms
        for name, e in laurent.items():
            lau[self._apos[name]] = e
        inv = [0] * self.ninv
        for name, e in inverse.items():
            inv[self._ipos[name]] = e
        return (tuple(lau), tuple(inv))

    def monomial(self, laurent=None, inverse=None, coeff=None):
        c = self.field.one if coeff is None else coeff
        return self.element({self.monomial_key(laurent, inverse): c})

    def element(self, terms):
        """The element with these terms, zero coefficients dropped.
        ``ValueError`` unless each key is a (Laurent, inverse) pair of tuples
        of ints, natoms and ninv long, with no negative inverse exponent, and
        each coefficient is a scalar of the ring's field."""
        is_scalar = self.field.is_scalar
        out = {}
        for key, c in terms.items():
            if not (
                type(key) is tuple
                and len(key) == 2
                and type(key[0]) is tuple
                and type(key[1]) is tuple
                and len(key[0]) == self.natoms
                and len(key[1]) == self.ninv
            ):
                raise ValueError(f"{key!r} is not a monomial of the envelope at {self.x!r}")
            check_integers(key[0], "exponents")
            check_non_negative(key[1], "inverse exponents")
            if not is_scalar(c):
                raise ValueError(f"{c!r} is not a scalar of {self.field!r}")
            if c:
                out[key] = c
        return EnvelopeElement(self, out)

    def embed_base(self, f):
        """Image of a polynomial supported on the atoms below x."""
        self.ring._check(f)
        out = {}
        for mon, c in f.terms.items():
            lau = [0] * self.natoms
            for k, e in enumerate(mon):
                if e:
                    lau[self._apos[self.ring.variables[k]]] = e
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

    def _terms(self, elem):
        """elem's terms; ``ValueError`` if elem lives in another envelope."""
        if elem.env is not self:
            raise ValueError("element lives in a different envelope")
        return elem.terms

    def act_variable(self, z, elem):
        """Action of a single variable, monomial by monomial.  z resolves
        through the position tables first, so a name that is neither an atom
        below x nor an inverse variable raises on the zero element too."""
        if self._apos.get(z) is None:
            self._ipos[z]
        out = {}
        for mon, c in self._terms(elem).items():
            for key in self._step(z, mon):
                add_term(out, key, c)
        return EnvelopeElement(self, out)

    def act_monomial(self, mon, elem):
        """Action of the monomial with exponent tuple mon, in ring order."""
        if len(check_non_negative(mon, "exponents")) != self.ring.nvars:
            raise ValueError(f"not an exponent tuple of this ring: {mon!r}")
        self._terms(elem)
        for z, e in zip(self.ring.variables, mon):
            for _ in range(e):
                if not elem.terms:
                    return elem
                elem = self.act_variable(z, elem)
        return elem

    def act_polynomial(self, f, elem):
        self.ring._check(f)
        self._terms(elem)
        acc = {}
        for mon, c in f.terms.items():
            for key, v in self.act_monomial(mon, elem).terms.items():
                add_term(acc, key, v * c)
        return EnvelopeElement(self, acc)

    def act_tilde(self, z, elem):
        """Action of the straightened variable: a pure inverse-part shift,
        killing monomials whose z-exponent is zero."""
        j = self._ipos[z]
        out = {}
        for (lau, inv), c in self._terms(elem).items():
            e = inv[j]
            if e > 0:
                # injective on the surviving monomials, so no collisions
                out[(lau, inv[:j] + (e - 1,) + inv[j + 1:])] = c
        return EnvelopeElement(self, out)

    def act_laurent(self, shift, elem):
        """Multiplication by the Laurent unit t^shift, over the atoms below x."""
        shift = check_integers(degree_vector(shift, self.natoms), "degree entries")
        out = {}
        for (lau, inv), c in self._terms(elem).items():
            out[(tuple(map(add, lau, shift)), inv)] = c
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
        """Iterate the inverse vectors of depth at most depth_bound that are
        zero off the inverse positions (all by default), in lexicographic
        order."""
        pos = range(self.ninv) if positions is None else positions
        vecs = bounded_vectors([self._iweight[j] for j in pos], depth_bound)
        return _spread(self.ninv, pos, vecs)

    def _slice_positions(self, a):
        """The inverse positions a monomial of degree a may be nonzero at, as
        an ascending tuple, or None when no monomial has degree a.

        At an atom g not below x no Laurent exponent counts, so the degree
        there is minus the inverse exponents of the variables with g among
        their atoms.  It is never positive, and it is zero only when each of
        those exponents is zero.  So a positive a_g leaves no monomial, and a
        variable with an atom g not below x where a_g = 0 has exponent zero
        in every degree-a monomial.  Every other variable may be nonzero.
        """
        if any(a[g] > 0 for g in self._free):
            return None
        free = self._free
        return tuple(j for j, d in enumerate(self._ideg) if all(a[g] < 0 for g in free if d[g]))

    def monomials_of_degree(self, a, depth_max, depth_min=0):
        """All basis monomials of degree a with depth in [depth_min,
        depth_max], sorted.

        A degree-a monomial has its inverse part zero off the positions
        ``_slice_positions`` allows (proof there), and that part alone gives
        its degree a_g at each atom g not below x.  Its Laurent part is then
        forced: a minus the inverse part's degree, on the atoms below x.
        Conversely each such inverse vector with that Laurent part has
        degree a.  So the slice is the inverse vectors on those positions
        that have degree a at the atoms not below x, each with its forced
        Laurent part.  Empty whenever a has a positive entry at an atom not
        below x.
        """
        check_non_negative((depth_max,), "depth bound")
        check_integers((depth_min,), "least depth")
        a = check_integers(degree_vector(a, self.ring.natoms), "degree entries")
        positions = self._slice_positions(a)
        if positions is None:
            return []
        lau = self.unit_mon[0]
        out = []
        for inv in self._inverse_vectors(depth_max, positions):
            d = self.degree((lau, inv))
            if all(d[g] == a[g] for g in self._free) and self.depth((lau, inv)) >= depth_min:
                out.append((tuple(a[g] - d[g] for g in self._acoord), inv))
        out.sort()
        return out

    def _box_axes(self, laurent_bound, w):
        """(Laurent positions, inverse positions, Laurent range) of the box."""
        check_non_negative((laurent_bound,), "Laurent bound")
        if w is None:
            lpos, ipos = range(self.natoms), range(self.ninv)
            return lpos, ipos, range(-laurent_bound, laurent_bound + 1)
        return (*self.active_positions(w), range(-laurent_bound, 1))

    def monomial_box(self, laurent_bound, depth_bound=0, w=None):
        """Iterate the basis monomials with Laurent exponents in
        [-laurent_bound, laurent_bound] and depth at most depth_bound: inverse
        part outermost, each part in lexicographic order.

        Given w below x, the active box of the descent from x to w, in the
        same order: the monomials zero off ``active_positions(w)``, with
        exponents in [-laurent_bound, 0] at the removed atoms (those of x not
        below w); at w = x, the unit alone.  Every bounded certificate of a
        descent sweeps it.  The passive coordinates come out of the descent
        translated (``active_positions``), so what its maps do on the box they
        do at every value of those coordinates.  A ``CleanMap`` m down to w
        kills each monomial e positive at a removed atom, and the action never
        lowers a Laurent exponent (``_step``), so m(e) and m(v e) vanish for
        every variable v: e leaves no dd leftover and passes every linearity
        probe.
        """
        lpos, ipos, rng = self._box_axes(laurent_bound, w)
        invs = self._inverse_vectors(depth_bound, ipos)
        return (
            (lau, inv)
            for inv in invs
            for lau in _spread(self.natoms, lpos, product(rng, repeat=len(lpos)))
        )

    def box_size(self, laurent_bound, depth_bound=0, w=None):
        """Number of monomials ``monomial_box`` yields at the same arguments,
        computed without enumerating them."""
        lpos, ipos, rng = self._box_axes(laurent_bound, w)
        weights = [self._iweight[j] for j in ipos]
        return len(rng) ** len(lpos) * count_bounded_vectors(weights, depth_bound)

    # ---------- distinguished subspaces ----------

    def L_defect(self, elem):
        """First monomial outside the positive-depth non-negative part."""
        for mon in sorted(elem.terms):
            if self.depth(mon) < 1 or any(d < 0 for d in self.degree(mon)):
                return mon
        return None

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

        Truncation is exact because the action never raises depth.  Each row
        is one (relation, target monomial); its entry at a slice monomial is
        the signed integer count of the relation's paths through ``_step``
        from there to the target (``_relation_table``).  ``kernel_basis``
        reduces the integer rows into the field, and reads the kernel off the
        reduced echelon form, which the order of the rows does not change.

        One kernel per depth bound serves every degree: the one at degree
        zero, translated by a_x, the entries of a at the atoms below x.
        (1) For a >= 0 the slice is empty unless a is zero off the atoms of x
        (``_slice_positions``).  (2) Then ``monomials_of_degree`` gives it as
        (a_x - d_x, inv) over one list of (d_x, inv): the degree-zero slice
        translated by a_x, in the same order.  (3) The rows depend only on
        the columns' inverse parts (``_annihilator_rows``), and those are the
        degree-zero slice's, in the same order: the rows are equal.
        (4) So the kernels differ by that translation, multiplication by the
        unit t^{a_x}: the S-linear shift of ``act_laurent``.
        """
        a = check_non_negative(degree_vector(a, self.ring.natoms), "degree entries")
        check_non_negative((depth_bound,), "depth bound")
        if any(a[g] for g in self._free):
            return []
        basis = self._kernels.get(depth_bound)
        if basis is None:
            mons, rows = self._annihilator_rows((0,) * len(a), depth_bound)
            basis = self._kernels[depth_bound] = [
                [(mons[k], v) for k, v in enumerate(vec) if v]
                for vec in kernel_basis(rows, len(mons), self.field)
            ]
        ax = tuple(a[g] for g in self._acoord)
        return [
            EnvelopeElement(self, {(tuple(map(add, lau, ax)), inv): v for (lau, inv), v in vec})
            for vec in basis
        ]

    def _relation_table(self):
        """(table, t): each defining relation's action on this envelope,
        built on first use, and t the longest relation term's length.  The
        table maps the positions a relation's paths contract, ascending with
        repeats, to a flat tuple of (relation index, signed count) pairs.

        A path of a relation term (``PolyRing.relation_terms``) through
        ``_step`` exists at a monomial exactly when its inverse exponent at
        each position is at least the number of contractions there, and its
        target's inverse part is the monomial's minus those contractions:
        only a contraction changes the inverse part, lowering an exponent by
        one.  The relations and every ``_step`` move are homogeneous in the
        atom grading, and a monomial's Laurent part is fixed by its degree
        and inverse part (``monomials_of_degree``).  So paths of one relation
        with one contraction multiset exist at the same monomials and reach
        the same target: their signed counts merge, and a zero sum is
        dropped.  One ``_step`` per variable, from a base with every inverse
        exponent one, which blocks no move, gives its contractions.
        """
        if self._table is None:
            terms = self.ring.relation_terms()
            top = max((len(ks) for _, ks, _ in terms), default=0)
            base = (self.unit_mon[0], (1,) * self.ninv)
            moves = [
                [(inv.index(0),) if 0 in inv else () for _, inv in self._step(z, base)]
                for z in self.ring.variables
            ]
            ends = {}
            for gi, ks, c in terms:
                walk = moves[ks[0]]
                for k in ks[1:]:
                    walk = [need + js for need in walk for js in moves[k]]
                for need in walk:
                    add_term(ends, (tuple(sorted(need)), gi), c)
            table = {}
            for (need, gi), n in ends.items():
                table.setdefault(need, []).extend((gi, n))
            self._table = ({need: tuple(flat) for need, flat in table.items()}, top)
        return self._table

    def _annihilator_rows(self, a, depth_bound):
        """The degree-a slice monomials of depth at most depth_bound, and the
        integer rows whose kernel ``annihilator_basis`` returns, one per
        (relation, target) with a nonzero count.  A relation's targets from
        one slice share a degree, so each is named by the relation and its
        inverse part (``_relation_table``).  A monomial looks up only the
        sub-multisets of its inverse exponents as contracted positions, and
        sets each row entry once: they leave distinct inverse parts."""
        mons = self.monomials_of_degree(a, depth_max=depth_bound)
        table, top = self._relation_table()
        rows = {}
        for col, (_, inv) in enumerate(mons):
            held = [j for j, e in enumerate(inv) for _ in range(min(e, top))]
            for need in dict.fromkeys(c for r in range(top + 1) for c in combinations(held, r)):
                if need not in table:
                    continue
                tinv = list(inv)
                for j in need:
                    tinv[j] -= 1
                tinv = tuple(tinv)
                it = iter(table[need])
                for gi, n in zip(it, it):
                    row = rows.get((gi, tinv))
                    if row is None:
                        row = rows[(gi, tinv)] = [0] * len(mons)
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
        if not self._terms(elem):
            raise ValueError("no witness for the zero element")
        ring = self.ring
        f = ring.one()
        cur = elem
        while cur.max_depth() > 0:
            # the largest inverse exponent, at its first position
            _, j = max((e, -j) for _, inv in cur.terms for j, e in enumerate(inv) if e)
            z = self.inv_vars[-j]
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
            bits.append(f"({self.field.format(c)})*({lpart} (x) {ipart})")
        return " + ".join(bits)

    def element_to_json(self, elem):
        terms = []
        for mon in sorted(elem.terms):
            lau, inv = mon
            terms.append(
                {
                    "laurent": {a: e for a, e in zip(self.atoms, lau) if e},
                    "inverse": {z: e for z, e in zip(self.inv_vars, inv) if e},
                    "coeff": self.field.format(elem.terms[mon]),
                }
            )
        return {"ambient": self.x, "terms": terms}
