"""Finite simplicial posets: parsing, validation, joins, meets, cover signs.

A simplicial poset has a least element and every lower interval isomorphic to
a boolean algebra.  Elements are identified by their display names.  The atom
order is the order of first appearance among rank-1 elements in the input,
and every sign and basis convention downstream derives from it, so results
are reproducible bit for bit.  Instances are immutable after construction and
safe for concurrent reads; the tables derived from them (the join table, the
complex test) are built on first use and kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class PosetError(ValueError):
    """Malformed poset description: bad file shape, cycle, missing bottom."""


@dataclass
class ValidationReport:
    """Axiom check outcome; ok holds exactly when violations is empty."""

    ok: bool
    violations: list

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [
                {"axiom": axiom, "witness": list(witness)}
                for axiom, witness in self.violations
            ],
        }


class _Index(dict):
    """Position of each name; a miss raises ``ValueError`` naming the key, the
    one check that a name is an element, variable or atom of its owner."""

    def __init__(self, unknown, names):
        super().__init__((x, i) for i, x in enumerate(names))
        self._unknown = unknown

    def __missing__(self, key):
        raise ValueError(f"{self._unknown} {key!r}")


class SimplicialPoset:
    def __init__(self, names, covers):
        names = [str(x) for x in names]
        if not names:
            raise PosetError("malformed poset: no elements")
        if len(names) != len(set(names)):
            raise PosetError("malformed poset: duplicate element names")
        self.names = tuple(names)
        self._idx = _Index("unknown element", self.names)
        n = len(names)

        lower = [[] for _ in range(n)]
        upper = [[] for _ in range(n)]
        pairs = set()
        for pair in covers:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise PosetError(f"malformed cover entry {pair!r}")
            u, l = str(pair[0]), str(pair[1])
            if u not in self._idx or l not in self._idx:
                raise PosetError(f"cover mentions unknown element: {pair!r}")
            iu, il = self._idx[u], self._idx[l]
            if iu == il:
                raise PosetError(f"cycle in covers: {u!r} covers itself")
            if (iu, il) not in pairs:
                pairs.add((iu, il))
                lower[iu].append(il)
                upper[il].append(iu)

        # Kahn order, lowest elements first; leftovers mean a cycle.
        indeg = [len(lower[i]) for i in range(n)]
        queue = [i for i in range(n) if indeg[i] == 0]
        topo = []
        while queue:
            i = queue.pop()
            topo.append(i)
            for u in upper[i]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
        if len(topo) != n:
            raise PosetError("cycle in covers")

        minima = [i for i in range(n) if not lower[i]]
        if len(minima) != 1:
            names_ = ", ".join(self.names[i] for i in sorted(minima))
            raise PosetError(f"missing bottom (minimal elements: {names_})")
        self._bottom = minima[0]

        below, above, rank = [None] * n, [None] * n, [0] * n
        for i in topo:
            below[i] = frozenset({i}.union(*(below[l] for l in lower[i])))
            rank[i] = 1 + max((rank[l] for l in lower[i]), default=-1)
        for i in reversed(topo):
            above[i] = frozenset({i}.union(*(above[u] for u in upper[i])))
        self._below, self._above, self._rank = below, above, tuple(rank)

        self._lower = tuple(tuple(sorted(lower[i])) for i in range(n))
        self.covers = tuple(
            (self.names[u], self.names[l]) for u, l in sorted(pairs)
        )

        self.atoms = tuple(x for x in self.names if self._rank[self._idx[x]] == 1)
        self._atoms_below = tuple(
            tuple(a for a in self.atoms if self._idx[a] in below[i])
            for i in range(n)
        )
        self._atom_sets = tuple(frozenset(t) for t in self._atoms_below)
        self._join_table = None
        self._is_complex = None

    # ---------- construction ----------

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
            raise PosetError("malformed poset file: need 'elements' and 'covers' keys")
        if not isinstance(obj["elements"], list) or not isinstance(obj["covers"], list):
            raise PosetError("malformed poset file: 'elements' and 'covers' must be lists")
        return cls(obj["elements"], obj["covers"])

    @classmethod
    def from_json_text(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PosetError(f"malformed poset file: {exc}") from exc
        return cls.from_json_obj(obj)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_text(fh.read())

    # ---------- basic queries ----------

    def __contains__(self, name):
        return name in self._idx

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"SimplicialPoset({len(self.names)} elements, {len(self.atoms)} atoms)"

    @property
    def elements(self):
        return self.names

    @property
    def bottom(self):
        return self.names[self._bottom]

    @property
    def proper_elements(self):
        """All elements except the bottom, in input order."""
        return tuple(x for x in self.names if self._idx[x] != self._bottom)

    @property
    def max_rank(self):
        return max(self._rank)

    def rank_of(self, x):
        return self._rank[self._idx[x]]

    def leq(self, a, b):
        return self._idx[a] in self._below[self._idx[b]]

    def lower_covers(self, x):
        return tuple(self.names[i] for i in self._lower[self._idx[x]])

    def is_cover(self, u, l):
        return self._idx[l] in self._lower[self._idx[u]]

    def atoms_below(self, x):
        """Atoms under x, listed in the global atom order."""
        return self._atoms_below[self._idx[x]]

    def atom_set(self, x):
        """Atoms under x, as a frozenset."""
        return self._atom_sets[self._idx[x]]

    # ---------- joins, meets, signs ----------

    def _minimal(self, common):
        """Sorted minimal indices of an up-set of indices: those with no
        lower cover in it, since for any v < u in it the first cover on a
        path of covers from u down to v is at least v, so in it too."""
        lower = self._lower
        return sorted([u for u in common if common.isdisjoint(lower[u])])

    def _largest_lower(self, ia, ib):
        """Index of the largest common lower bound, else ``PosetError``.  The
        bounds form a down-set holding below[top] for its element top of
        highest rank; top is largest exactly when the two have equal size."""
        lbs = self._below[ia] & self._below[ib]
        top = max(lbs, key=self._rank.__getitem__)
        if len(self._below[top]) != len(lbs):
            raise PosetError("no largest common lower bound; poset is not simplicial")
        return top

    def join_set(self, xs):
        """Minimal common upper bounds of a nonempty collection; may be empty."""
        idxs = [self._idx[x] for x in xs]
        if not idxs:
            raise ValueError("join of an empty collection")
        common = frozenset.intersection(*(self._above[i] for i in idxs))
        return tuple(self.names[i] for i in self._minimal(common))

    def meet(self, a, b):
        """Largest common lower bound, or None without a common upper bound."""
        ia, ib = self._idx[a], self._idx[b]
        if self._above[ia].isdisjoint(self._above[ib]):
            return None
        return self.names[self._largest_lower(ia, ib)]

    def removed_atom(self, u, l):
        """The unique atom under u that is not under l, for a cover u > l."""
        if not self.is_cover(u, l):
            raise ValueError(f"{u!r} does not cover {l!r}")
        gone = self.atom_set(u) - self.atom_set(l)
        if len(gone) != 1:
            raise ValueError(f"cover ({u!r}, {l!r}) does not remove a unique atom")
        return next(iter(gone))

    def incidence_sign(self, u, l):
        """Boundary sign of a cover: (-1)**(position of the removed atom
        among the atoms under u, in global atom order)."""
        removed = self.removed_atom(u, l)
        j = self.atoms_below(u).index(removed)
        return -1 if j % 2 else 1

    # ---------- structure enumeration ----------

    def rank2_intervals(self):
        """All intervals [w, x] of rank difference two with their middles,
        by x, then w, in element order; a w may have none.  Ranks rise along
        every cover, so a middle is a lower cover of x, and w one of it."""
        rank, lower, names = self._rank, self._lower, self.names
        out = []
        for x, r in enumerate(rank):
            mids = {w: [] for w in sorted(self._below[x]) if rank[w] == r - 2}
            for z in lower[x]:
                if rank[z] == r - 1:
                    for w in lower[z]:
                        if rank[w] == r - 2:
                            mids[w].append(names[z])
            out += [(names[w], names[x], tuple(m)) for w, m in mids.items()]
        return out

    def saturated_chains(self, top, bot):
        """All saturated chains from top down to bot (inclusive)."""
        if not self.leq(bot, top):
            return []
        if top == bot:
            return [(top,)]
        out = []
        for l in self.lower_covers(top):
            if self.leq(bot, l):
                for ch in self.saturated_chains(l, bot):
                    out.append((top,) + ch)
        return out

    def join_table(self):
        """Rewrite data of every incomparable pair of proper elements, as
        {(k1, k2): (meet position or None, join positions)}, with positions
        k1 < k2 in ``proper_elements`` order and the pairs in that order.

        The meet position is None when the meet is the bottom or the join
        set is empty.  Built by the rules of ``join_set`` and ``meet`` on the
        first call and kept, so every ring on the poset shares this one dict;
        callers must not change it.  Raises ``PosetError`` where ``meet``
        does: on a pair with common upper bounds but no largest common lower
        bound.
        """
        if self._join_table is None:
            above, bottom, n = self._above, self._bottom, len(self.names)
            # each element's position in proper_elements
            pos = [i - (i > bottom) for i in range(n)]
            table = {}
            for ix in range(n):
                # the later elements incomparable to ix, never the bottom
                for iy in sorted(set(range(ix + 1, n)) - self._below[ix] - above[ix]):
                    joins = self._minimal(above[ix] & above[iy])
                    m = self._largest_lower(ix, iy) if joins else bottom
                    table[(pos[ix], pos[iy])] = (
                        None if m == bottom else pos[m], tuple(map(pos.__getitem__, joins))
                    )
            self._join_table = table
        return self._join_table

    def is_face_poset_of_complex(self):
        """True when every pairwise join set has at most one element.

        A comparable pair has exactly one join, its larger element, so only
        the incomparable pairs of ``join_table`` are read.  Where that table
        cannot be built, some meet(x, y) has two maximal common lower bounds
        p and q, and then p and q have two joins: x is a common upper bound
        of p and q, so they have a join; a single join would lie below every
        common upper bound, x and y among them, and strictly above p, which
        would then not be maximal.  So the answer there is False, and the
        test returns it rather than raising.  Computed on the first call and
        kept: the poset never changes.
        """
        if self._is_complex is None:
            try:
                table = self.join_table()
            except PosetError:
                self._is_complex = False
            else:
                self._is_complex = all(len(j) <= 1 for _, j in table.values())
        return self._is_complex


def validate_simplicial(poset: SimplicialPoset) -> ValidationReport:
    """Check the defining axioms; each failure carries a witness.

    The least element needs no check here: the constructor rejects cycles
    and requires exactly one minimal element, and in a finite acyclic order
    every downward walk from x ends at a minimal element, so bottom <= x.
    [0, x] is boolean by atom sets exactly when |atoms(x)| = rank(x) and
    |[0, x]| = 2^rank(x), atom sets are distinct on [0, x], and each z <= x
    is full: |[0, z]| = 2^|atoms(z)|.  Given the first three, the atom sets
    of [0, x] are the subsets of atoms(x), and y <= z gives atoms(y) <=
    atoms(z).  A full z maps [0, z] one-to-one onto the subsets of
    atoms(z), so atoms(y) <= atoms(z) makes y the y' <= z of that atom set.
    Conversely, where subsets give <=, each subset of atoms(z) is the atom
    set of a y <= z, so z is full.  Only sizes are read, never the covers.
    """
    # all maximal chains in a lower interval share the rank as their length
    violations = [
        ("graded covers", (u, l))
        for u, l in poset.covers
        if poset.rank_of(u) != poset.rank_of(l) + 1
    ]

    below, keys = poset._below, poset._atom_sets
    full = [len(b) == 2 ** len(k) for b, k in zip(below, keys)]
    for x, r in enumerate(poset._rank):
        size = 2 ** r
        if not (
            len(keys[x]) == r
            and len(below[x]) == size
            and all(full[y] for y in below[x])
            and len({keys[y] for y in below[x]}) == size
        ):
            violations.append(("boolean lower interval", (poset.names[x],)))

    for w, x, mids in poset.rank2_intervals():
        if len(mids) != 2:
            violations.append(("two middles in rank-2 intervals", (w, x)))

    return ValidationReport(not violations, violations)
