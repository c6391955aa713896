"""Face posets generated from facet lists.

Every family is described by a list of facets (tuples of vertex numbers).
Repeating a facet glues several top faces onto the same boundary, which
gives simplicial posets that are not face posets of simplicial complexes.
Element names are the vertex numbers of a face written side by side (so at
most nine vertices), with a `_k` suffix on repeated facets; the bottom is
"0".  The seed only permutes the order in which the vertices are listed,
which fixes the atom order and therefore every sign convention downstream,
so each seed gives an isomorphic poset with its own sign data.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

# Six-vertex real projective plane (the hemi-icosahedron).
RP2_FACETS = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)

# Seven-vertex torus (Moebius-Csaszar): {i, i+1, i+3} and {i, i+2, i+3} mod 7.
TORUS_FACETS = tuple(
    tuple(sorted(((i + s) % 7) + 1 for s in shift))
    for i in range(7)
    for shift in ((0, 1, 3), (0, 2, 3))
)


def simplex_boundary_facets(n):
    """Facets of the boundary of the (n-1)-simplex on vertices 1..n."""
    return tuple(combinations(range(1, n + 1), n - 1))


def glued_facets(k):
    """k triangles glued along one common triangle boundary."""
    return ((1, 2, 3),) * k


def facet_face_counts(facets):
    """Face counts per rank read off the facet list alone: distinct proper
    faces, plus each facet entry once (repeated facets are distinct tops)."""
    tops = Counter(tuple(sorted(f)) for f in facets)
    faces = set()
    for f in tops:
        for r in range(1, len(f)):
            faces.update(combinations(f, r))
    faces -= set(tops)
    counts = Counter(len(f) for f in faces)
    for f, mult in tops.items():
        counts[len(f)] += mult
    return dict(counts)


def face_poset_obj(facets, rng=None):
    """{"elements", "covers"} for the face poset of a facet list whose
    facets have at least two vertices.

    rng, when given, shuffles the vertex order (and so the atom order).
    """
    tops = Counter(tuple(sorted(f)) for f in facets)
    vertices = sorted({v for f in tops for v in f})
    if len(vertices) > 9:
        raise ValueError("face names use one digit per vertex")
    if rng is not None:
        rng.shuffle(vertices)
    proper = set()
    for f in tops:
        for r in range(1, len(f)):
            proper.update(combinations(f, r))
    proper -= set(tops)

    def name(face):
        return "".join(str(v) for v in face) if face else "0"

    elements = ["0"] + [name((v,)) for v in vertices]
    covers = [[name((v,)), "0"] for v in vertices]
    for face in sorted(proper, key=lambda f: (len(f), f)):
        if len(face) == 1:
            continue
        elements.append(name(face))
        covers.extend([name(face), name(sub)] for sub in combinations(face, len(face) - 1))
    for face in sorted(tops, key=lambda f: (len(f), f)):
        mult = tops[face]
        for k in range(mult):
            label = name(face) if mult == 1 else f"{name(face)}_{k + 1}"
            elements.append(label)
            covers.extend([label, name(sub)] for sub in combinations(face, len(face) - 1))
    return {"elements": elements, "covers": covers}


# name -> (facets, is the face poset of a simplicial complex)
FAMILIES = {
    "bd_simplex5": (simplex_boundary_facets(6), True),
    "bd_simplex6": (simplex_boundary_facets(7), True),
    "tetrahedron": (simplex_boundary_facets(4), True),
    "torus7": (TORUS_FACETS, True),
    "rp2_6": (RP2_FACETS, True),
    "glued3": (glued_facets(3), False),
    "glued4": (glued_facets(4), False),
}
