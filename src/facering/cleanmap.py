"""Normalized homomorphisms between envelopes and their certification.

A degree-zero map between envelopes is called clean when it carries the
positive-depth non-negative part of the source into that of the target;
with the monomial bases fixed here, a clean map between fixed endpoints is
unique up to a scalar.  This module builds the explicit cover-step maps,
composes them along saturated chains, certifies cleanness and linearity on
finite boxes, constructs a degree-zero automorphism that is deliberately not
clean, and reconstructs the base-change conjugate that turns an arbitrary
unit-preserving map back into the clean one.

Certificates are depth-bounded by necessity (the defining condition ranges
over infinitely many monomials) and always record their bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, itemgetter

from .envelope import Envelope, EnvelopeElement, bounded_vectors, count_bounded_vectors
from .scalars import add_term


class StabilizationError(RuntimeError):
    """A truncated correction series failed to terminate within its bound."""


@dataclass
class CertReport:
    """Result of one bounded certification sweep.

    ``checked`` counts monomials: for clean, linearity and roundtrip sweeps
    those that passed before the first failure, or all on a pass (as every
    cover map of a valid poset does); for a dd sweep the full box it covers.
    A passing linearity report of a ``CleanMap``, like a dd report, holds for
    every value of the passive coordinates, and its ``checked`` still counts
    the full box.
    """

    name: str
    bounds: dict
    passed: bool
    checked: int = 0
    witness: dict | None = None
    details: dict | None = None

    def to_json(self):
        out = {
            "property": self.name,
            "box": self.bounds,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details is not None:
            out["details"] = self.details
        return out


class CoverData:
    """Precomputed combinatorics of one cover step x > z between envelopes.

    The step moves one coordinate.  The target's atoms are the source's
    minus the removed atom r, both in the global atom order, and the
    target's inverse variables are the source's plus r, both in ring order.
    Proof: every atom below z is below x, and exactly one atom of x is not
    below z (``SimplicialPoset.removed_atom`` raises otherwise); each
    envelope lists its atoms by filtering the global atom order and its
    inverse variables by filtering the ring order down to the non-atoms.  So a
    target Laurent part is the source's with position r_pos deleted, and a
    target inverse part is the source's with r's exponent inserted at
    r_tgt.  The Z positions ``z_src`` (the elements below x but not below z)
    absorb the binomial transfer out of r; every other exponent is copied.

    The constructor raises unless an element below x lies in Z exactly when
    it is above r (the interval below x is boolean).  So r, an atom, is
    among the atoms of each Z element: each Z element's face bump is one at
    r_pos, and ``_kept_bumps`` holds the rest of it, on the kept atoms.
    """

    def __init__(self, ring, upper, lower):
        poset = ring.poset
        self.removed = poset.removed_atom(upper, lower)
        self.ring = ring
        self.upper = upper
        self.lower = lower
        self.source = Envelope.of(ring, upper)
        self.target = Envelope.of(ring, lower)
        src = self.source
        _, self.z_src = src.active_positions(lower)
        self.r_pos = src._apos[self.removed]
        for j, z in enumerate(src.inv_vars):
            if poset.leq(z, upper) and (j in self.z_src) != poset.leq(self.removed, z):
                raise ValueError(f"{z!r} breaks the boolean interval below {upper!r}")
        self.r_tgt = self.target._ipos[self.removed]
        r = self.r_pos
        zbumps = [src._ibump[j] for j in self.z_src]
        self._kept_bumps = tuple(zb[:r] + zb[r + 1:] for zb in zbumps)
        self._dcache = {}
        self._kept = _picker([*range(r), *range(r + 1, src.natoms)])

    def _expansions(self, budget):
        """The table entry of a removed-atom exponent -budget (see
        ``CleanMap``): one (kept-atom bump, moves, rest) per way to move at
        most budget units into Z.  The moves are the (source inverse
        position, target inverse position, units) of each Z element that
        gets some; rest puts the units left at the removed atom's target
        position, and is empty when none are left."""
        cached = self._dcache.get(budget)
        if cached is None:
            out = []
            r_tgt = self.r_tgt
            rests = [((r_tgt, left),) if left else () for left in range(budget + 1)]
            for d in bounded_vectors((1,) * len(self.z_src), budget):
                bump = [0] * (self.source.natoms - 1)
                moves = []
                for j, dz, zb in zip(self.z_src, d, self._kept_bumps):
                    if dz:
                        moves.append((j, j + (j >= r_tgt), dz))
                        for t, b in enumerate(zb):
                            if b:
                                bump[t] += dz
                out.append((tuple(bump), tuple(moves), rests[budget - sum(d)]))
            cached = self._dcache[budget] = tuple(out)
        return cached

    def apply_monomial(self, lau, inv):
        """Expand one source monomial into [(laurent, inverse, int coeff)].

        Transfers up to -a_r units of the removed atom's Laurent exponent
        into the Z inverse exponents, weighting each move by the binomial
        count of its interleavings; monomials with positive removed-atom
        exponent map to zero.
        """
        a_r = lau[self.r_pos]
        if a_r > 0:
            return ()
        return _entry_terms(self._expansions(-a_r), self._kept(lau), inv, (self.r_tgt,))


def _entry_terms(entry, kept, inv, rtgt):
    """[(laurent, inverse, int coeff)]: the terms of a table entry (see
    ``CleanMap``) translated to a monomial with kept-atom Laurent part kept
    and inverse part inv, which gets a zero at each target inverse position
    in rtgt (ascending) before the moves and rest are written."""
    base = list(inv)
    for p in rtgt:
        base.insert(p, 0)
    out = []
    for bump, moves, rest in entry:
        k = 1
        ti = base.copy()
        for j, p, d in moves:
            b = inv[j]
            k *= comb(b + d, d)
            ti[p] = b + d
        for p, v in rest:
            ti[p] = v
        out.append((tuple(map(add, kept, bump)), tuple(ti), k))
    return out


def _picker(positions):
    """The function taking a tuple to its entries at positions, as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda t: (t[p],)
    return lambda t: ()


class CleanMap:
    """Composite of cover steps along a saturated chain, sending the source
    unit to the target unit.

    The map expands each source monomial in one pass, from a table with one
    entry per vector a of its exponents at the removed atoms (the atoms of
    the source not below the target, the Laurent positions of
    ``Envelope.active_positions(target)``).  The entry of a is the image of
    the probe monomial with exponents a there and zero everywhere else,
    stored per term as its Laurent part (a bump of the kept atoms), its
    moves, the (source inverse position j, target inverse position, units
    d_j) of each Z element the term moved units into, and the rest, the
    exponents it leaves at the removed atoms' inverse coordinates.  A
    monomial with kept-atom Laurent part K and inverse part c maps to the
    sum over the entry of prod C(c_j + d_j, d_j) over the moves, times the
    monomial with Laurent part K + bump and inverse part c (zero at the
    removed atoms) plus the moved units and the rest.

    Proof.  Let the chain be u_0 > u_1 > ... > u_k, step i removing the atom
    r_i and moving units into Z_i, the elements below u_{i-1} but not below
    u_i (``CoverData``).  The Z_i are pairwise disjoint, since an element of
    Z_j with j > i is below u_{j-1} <= u_i; no r_i lies in any Z_j, since
    r_i is an atom below u_{i-1} and is not below u_i.  So step i reads each
    Z_i exponent as the input's c_j, untouched by earlier steps, and its
    binomials are C(c_j + d_j, d_j); a move set fixes the term's inverse
    part at every Z position, so distinct paths give distinct terms, each
    with coefficient 1 at the probe.  Step i's budget is minus r_i's Laurent
    exponent after the earlier steps' bumps, which depends only on a and on
    the earlier moves, and the exponent it writes at r_i's inverse
    coordinate is that budget minus the units moved; nothing later touches
    that coordinate, nor any other source inverse exponent outside the Z_i.
    The bumps land on the kept atoms' exponents, which no budget reads.
    So every term, with its moves, is the probe's term translated by K and
    c, with the binomials of the moves.

    A composite kills what its removed atoms kill: each step maps a monomial
    with a positive exponent at its removed atom to zero and adds only
    non-negative bumps to the exponents of the atoms it keeps, so a positive
    entry of a gives an empty image.  The table is filled on first use of
    each a, by running the probe through ``CoverData.apply_monomial`` step
    by step, for every chain, the identity (x,) included.
    """

    def __init__(self, ring, chain):
        chain = tuple(chain)
        if not chain:
            raise ValueError("empty chain")
        self.ring = ring
        self.chain = chain
        self.covers = tuple(
            CoverData(ring, u, l) for u, l in zip(chain, chain[1:])
        )
        self.source, self.target = chain[0], chain[-1]
        self.source_env = Envelope.of(ring, self.source)
        self.target_env = Envelope.of(ring, self.target)
        self._layout = None  # built on the first call, so building a map costs nothing

    def _build_layout(self):
        """(table, removed, kept, removed targets): the empty table, the
        pickers of a monomial's removed-atom and kept-atom exponents, as
        tuples, and the removed atoms' target inverse positions, ascending.
        Also keeps the removed atoms' Laurent positions and the source
        inverse position of each target inverse variable, for ``_fill``."""
        src, tgt = self.source_env, self.target_env
        lpos, _ = src.active_positions(self.target)
        self._lpos = lpos
        self._src_pos = tuple(src._ipos.get(z) for z in tgt.inv_vars)
        self._layout = (
            {},
            _picker(lpos),
            _picker([i for i in range(src.natoms) if i not in lpos]),
            sorted(tgt._ipos[src.atoms[i]] for i in lpos),
        )
        return self._layout

    def _fill(self, a):
        """The table entry of the removed-atom exponents a: empty when an
        entry of a is positive, else the image of the probe monomial at a,
        run through every step."""
        if max(a, default=0) > 0:
            return ()
        lau = [0] * self.source_env.natoms
        for p, e in zip(self._lpos, a):
            lau[p] = e
        terms = {(tuple(lau), self.source_env.unit_mon[1]): 1}
        for cd in self.covers:
            nxt = {}
            for (l, i), k in terms.items():
                for tl, ti, kk in cd.apply_monomial(l, i):
                    add_term(nxt, (tl, ti), k * kk)
            terms = nxt
        src_pos = self._src_pos
        entry = []
        for bump, ti in terms:
            moved = [(src_pos[p], p, v) for p, v in enumerate(ti) if v]
            entry.append((
                bump,
                tuple(m for m in moved if m[0] is not None),
                tuple((p, v) for j, p, v in moved if j is None),
            ))
        return tuple(entry)

    def __call__(self, elem):
        terms = self.source_env._terms(elem)
        table, removed, kept, rtgt = self._layout or self._build_layout()
        fld = self.ring.field
        out = {}
        for (lau, inv), c in terms.items():
            a = removed(lau)
            entry = table.get(a)
            if entry is None:
                entry = table[a] = self._fill(a)
            if entry:
                for tl, ti, k in _entry_terms(entry, kept(lau), inv, rtgt):
                    add_term(out, (tl, ti), c if k == 1 else c * fld.from_int(k))
        return EnvelopeElement(self.target_env, out)

    def __repr__(self):
        return f"CleanMap({' > '.join(self.chain)})"


def cover_map(ring, upper, lower):
    """The normalized map attached to a single cover."""
    return CleanMap(ring, (upper, lower))


def rank1_map(ring, atom):
    """The map from a rank-1 envelope down to the bottom envelope."""
    return CleanMap(ring, (atom, ring.poset.bottom))


def chain_map(ring, chain):
    """Composite along a saturated chain, normalized on the unit."""
    return CleanMap(ring, chain)


class GradedEndomap:
    """Evaluable degree-zero self-map of one envelope."""

    def __init__(self, env, fn, label=""):
        self.env = self.source_env = self.target_env = env
        self._fn = fn
        self.label = label

    def __call__(self, elem):
        self.env._terms(elem)
        return self._fn(elem)

    def __repr__(self):
        return f"GradedEndomap({self.label or 'anonymous'})"


class ComposedMap:
    """Composition outer after inner of two evaluable maps."""

    def __init__(self, outer, inner):
        if inner.target_env is not outer.source_env:
            raise ValueError("maps do not compose")
        self.outer = outer
        self.inner = inner
        self.source_env = inner.source_env
        self.target_env = outer.target_env

    def __call__(self, elem):
        return self.outer(self.inner(elem))


def compose_maps(outer, inner):
    return ComposedMap(outer, inner)


def nonclean_automorphism(ring, x, lam):
    """Degree-zero automorphism of the envelope at x that is not clean.

    id + lam * theta, where theta shifts every atom Laurent exponent down by
    one after contracting the inverse exponent of x itself.  theta is
    S-linear (unit shifts and straightened contractions commute with the
    action) and locally nilpotent, so the sum is invertible; it fixes the
    unit but pushes positive-depth monomials onto it.
    """
    if ring.poset.rank_of(x) < 2:
        raise ValueError("need an element of rank at least 2")
    env = Envelope.of(ring, x)
    env.unit().scale(lam)  # scale checks lam: fail here, not at the first call
    shift = (-1,) * env.natoms

    def fn(elem):
        theta = env.act_laurent(shift, env.act_tilde(x, elem))
        return elem + theta.scale(lam)

    return GradedEndomap(env, fn, label=f"unit-shift perturbation at {x}")


def _sweep(name, bounds, monomials, probe):
    """One certification sweep: probe each monomial in order and stop at the
    first that returns a witness; checked counts the monomials before it."""
    checked = 0
    for mon in monomials:
        witness = probe(mon)
        if witness is not None:
            return CertReport(name, bounds, False, checked=checked, witness=witness)
        checked += 1
    return CertReport(name, bounds, True, checked=checked)


def check_clean(m, depth_bound=4):
    """Certify cleanness on all degree-zero positive-depth monomials of
    depth at most depth_bound (degree zero suffices: both sides of the
    condition are stable under the Laurent units that move degrees)."""
    src = m.source_env
    tgt = m.target_env
    one = src.ring.field.one

    def probe(mon):
        e = EnvelopeElement(src, {mon: one})
        img = m(e)
        bad = tgt.L_defect(img)
        if bad is None:
            return None
        return {
            "input": src.element_to_json(e),
            "image": tgt.element_to_json(img),
            "offending": tgt.element_to_json(EnvelopeElement(tgt, {bad: one})),
        }

    zero_deg = (0,) * src.ring.natoms
    mons = src.monomials_of_degree(zero_deg, depth_max=depth_bound, depth_min=1)
    return _sweep("clean", {"depth": depth_bound}, mons, probe)


def clean_sweep_size(env, depth_bound):
    """Number of monomials ``check_clean`` sweeps on a passing map out of
    env: the degree-zero monomials of depth 1 to depth_bound.  At degree
    zero every variable ``Envelope._slice_positions`` allows has all its
    atoms below env.x, so each inverse vector of bounded depth on those
    positions has degree zero at the atoms not below env.x and occurs once,
    its Laurent part forced by the degree.  The unit is the one of depth 0."""
    pos = env._slice_positions((0,) * env.ring.natoms)
    return count_bounded_vectors([env._iweight[j] for j in pos], depth_bound) - 1


def _linearity_probe(m):
    """Probe of one source monomial for ``check_linearity``: None when m
    keeps its degree and commutes there with each of the given variables
    (all of them by default), else a witness."""
    src = m.source_env
    tgt = m.target_env
    one = src.ring.field.one

    def probe(mon, variables=src.ring.variables):
        e = EnvelopeElement(src, {mon: one})
        img = m(e)
        d = src.degree(mon)
        if any(tgt.degree(om) != d for om in img.terms):
            return {
                "reason": "degree not preserved",
                "input": src.element_to_json(e),
                "image": tgt.element_to_json(img),
            }
        for w in variables:
            if m(src.act_variable(w, e)) != tgt.act_variable(w, img):
                return {
                    "reason": f"action of t[{w}] does not commute",
                    "input": src.element_to_json(e),
                }
        return None

    return probe


def _passive_lifts(env, w, depth_bound):
    """(inverse position, variable, depth left) for each inverse coordinate
    the descent from env.x down to w leaves passive whose unit fits within
    depth_bound."""
    _, ipos = env.active_positions(w)
    return [
        (j, z, depth_bound - weight)
        for j, (z, weight) in enumerate(zip(env.inv_vars, env._iweight))
        if j not in ipos and weight <= depth_bound
    ]


def _active_linearity_sweep(env, w, laurent_bound, depth_bound):
    """(monomial, variables) pairs the linearity sweep of a ``CleanMap``
    from env.x down to w probes, in order; see ``check_linearity``."""
    for mon in env.monomial_box(laurent_bound, depth_bound, w):
        yield mon, env.ring.variables
    for j, z, rest in _passive_lifts(env, w, depth_bound):
        for lau, inv in env.monomial_box(laurent_bound, rest, w):
            yield (lau, inv[:j] + (1,) + inv[j + 1:]), (z,)


def linearity_sweep_size(env, w, laurent_bound, depth_bound):
    """Number of monomials ``check_linearity`` probes on a passing
    ``CleanMap`` from env.x down to w: the active box of that descent
    (``Envelope.monomial_box``), and for each passive inverse coordinate the
    active box of the depth its unit leaves."""
    return env.box_size(laurent_bound, depth_bound, w) + sum(
        env.box_size(laurent_bound, rest, w)
        for _, _, rest in _passive_lifts(env, w, depth_bound)
    )


def check_linearity(m, laurent_bound=2, depth_bound=2):
    """Certify degree preservation and commutation with every variable on a
    finite monomial box.

    A ``CleanMap`` is swept over the active box of its descent
    (``Envelope.monomial_box``: what it skips passes, and its images are
    translated by the passive coordinates).  Degrees add under that
    translation, so the degree test runs on the box.  A variable v acts by
    fixed shifts, which commute with the translation, except the contraction
    at v's own inverse coordinate, which kills exponent zero.  Where that
    coordinate is passive it is copied to the image, so both sides lose the
    contraction at zero and are translates of their values at one at every
    positive value.  So v is also
    probed on the box with its own coordinate at one (depth at most
    depth_bound), and a pass holds for every value of the passive
    coordinates.  On a pass ``checked`` counts the full box; on a failure
    (only a broken map fails) the full box is swept again for the first
    failing monomial and the count before it.  Any other map is swept over
    the full box.
    """
    bounds = {"laurent": laurent_bound, "depth": depth_bound}
    src = m.source_env
    probe = _linearity_probe(m)
    if isinstance(m, CleanMap):
        sweep = _active_linearity_sweep(src, m.target, laurent_bound, depth_bound)
        if all(probe(mon, vs) is None for mon, vs in sweep):
            return CertReport(
                "graded linearity",
                bounds,
                True,
                checked=src.box_size(laurent_bound, depth_bound),
            )
    mons = src.monomial_box(laurent_bound, depth_bound)
    return _sweep("graded linearity", bounds, mons, probe)


def tau_coefficient(phi, alpha, beta):
    """Coefficient of beta in the base-change conjugate applied to alpha.

    Pairs phi against the target unit after multiplying alpha by the dual
    element of beta (straightened contractions, then a Laurent unit); the
    grading makes this vanish unless the degrees agree.
    """
    env = phi.source_env
    tgt = phi.target_env
    fld = env.ring.field
    lau_a, inv_a = alpha
    lau_b, inv_b = beta
    if any(b > a for a, b in zip(inv_a, inv_b)):
        return fld.zero
    shifted = (
        tuple(a - b for a, b in zip(lau_a, lau_b)),
        tuple(a - b for a, b in zip(inv_a, inv_b)),
    )
    img = phi(EnvelopeElement(env, {shifted: fld.one}))
    return img.terms.get(tgt.unit_mon, fld.zero)


def tau_map(phi):
    """The base-change conjugate of phi as an evaluable endomap.

    Requires phi to preserve the unit up to a nonzero scalar.  The
    coefficient of beta in tau(alpha) pairs phi(alpha - beta) with the
    target unit, and only betas of alpha's degree with inverse part below
    alpha's carry one.  Their differences gamma are exactly the degree-zero
    monomials with inverse part componentwise below alpha's, so with
    c(gamma) = tau_coefficient(phi, gamma, unit), tau(alpha) is the sum of
    c(gamma) * (alpha - gamma) over those gamma.  That condition implies
    depth(gamma) <= depth(alpha), so the nonzero pairings are kept up to the
    deepest input so far, and each is computed once.
    """
    env = phi.source_env
    unit = env.unit_mon
    c = tau_coefficient(phi, unit, unit)
    if not c:
        raise ValueError("map kills the unit; no conjugate exists")
    zero_deg = (0,) * env.ring.natoms
    pairings = [(unit, c)]
    reached = 0

    def fn(elem):
        nonlocal reached
        acc = {}
        for mon, c0 in elem.terms.items():
            depth = env.depth(mon)
            if depth > reached:
                for gamma in env.monomials_of_degree(zero_deg, depth, reached + 1):
                    co = tau_coefficient(phi, gamma, unit)
                    if co:
                        pairings.append((gamma, co))
                reached = depth
            for gamma, co in pairings:
                beta = tuple(tuple(a - g for a, g in zip(*p)) for p in zip(mon, gamma))
                if all(e >= 0 for e in beta[1]):
                    add_term(acc, beta, c0 * co)
        return EnvelopeElement(env, acc)

    return GradedEndomap(env, fn, label="base-change conjugate")


def materialize_tau(phi, monomials):
    """Conjugate endomap with its series precomputed up to the deepest of
    the given monomials."""
    t = tau_map(phi)
    deepest = max(monomials, key=t.env.depth, default=None)
    if deepest is not None:
        t(t.env.element({deepest: t.env.ring.field.one}))
    return t


# Correction-series steps allowed beyond the input's total inverse exponent.
_SERIES_EXTRA = 4


def neumann_inverse(endo):
    """Inverse of a unit-triangular evaluable endomap via its correction
    series; raises StabilizationError instead of silently truncating."""
    env = endo.env
    fld = env.ring.field
    c = endo(env.unit()).terms.get(env.unit_mon)
    if not c:
        raise ValueError("endomap kills the unit; not invertible this way")
    inv_c = fld.one / c

    def n_of(e):
        return endo(e).scale(inv_c) - e

    def fn(elem):
        if elem.is_zero():
            return elem
        bound = max(sum(inv) for (_, inv) in elem.terms) + _SERIES_EXTRA
        term = elem
        total = env.zero()
        sign = 1
        k = 0
        while term:
            total = (total + term) if sign > 0 else (total - term)
            sign = -sign
            k += 1
            if k > bound:
                raise StabilizationError(
                    f"correction series did not stabilize within {bound} steps"
                )
            term = n_of(term)
        return total.scale(inv_c)

    return GradedEndomap(env, fn, label=f"series inverse of {endo.label}")


def check_roundtrip(ring, x, lower, laurent_bound, depth_bound):
    """Certify the base-change roundtrip at x on the box of these bounds.

    phi is the cover map x > lower after the non-clean automorphism at x,
    and tau its base-change conjugate.  The cover map after tau must equal
    phi on every box monomial; the witness is the first where it does not.
    The report passes only if that holds, phi is not clean and phi after
    the series inverse of tau is clean, both to depth_bound.  phi perturbs
    through t_x^-1, so a depth_bound below rank(x) raises ValueError.
    """
    psi = cover_map(ring, x, lower)
    rank = ring.poset.rank_of(x)
    if depth_bound < rank:
        raise ValueError(f"the roundtrip at {x!r} needs depth_bound {rank} or more")
    phi = compose_maps(psi, nonclean_automorphism(ring, x, ring.field.one))
    not_clean = not check_clean(phi, depth_bound=depth_bound).passed
    env = phi.source_env
    box = list(env.monomial_box(laurent_bound, depth_bound))
    tau = materialize_tau(phi, box)
    psi_tau = compose_maps(psi, tau)

    def probe(mon):
        e = env.element({mon: ring.field.one})
        if psi_tau(e) != phi(e):
            return {"input": env.element_to_json(e)}
        return None

    bounds = {"laurent": laurent_bound, "depth": depth_bound}
    rep = _sweep("base-change roundtrip", bounds, box, probe)
    repaired = check_clean(compose_maps(phi, neumann_inverse(tau)), depth_bound)
    rep.passed = rep.passed and not_clean and repaired.passed
    return rep
