"""Bundled example posets shipped as package data.

p1                   two edges glued along both endpoints (a circle model)
hollow_triangle      three vertices and three edges, no 2-face
solid_triangle       the full 2-simplex
tetrahedron_boundary all proper faces of the 3-simplex
two_disjoint_edges   two segments with no common vertex
double_triangle      two 2-faces sharing all three edges (not a simplicial
                     complex; join sets of edges have two elements)
"""

from __future__ import annotations

import os
from importlib import resources

from .poset import SimplicialPoset

BUNDLED = (
    "p1",
    "hollow_triangle",
    "solid_triangle",
    "tetrahedron_boundary",
    "two_disjoint_edges",
    "double_triangle",
)


def bundled_poset_text(name: str) -> str:
    if name not in BUNDLED:
        raise ValueError(f"no bundled poset named {name!r}")
    return (
        resources.files("facering").joinpath(f"data/{name}.json").read_text("utf-8")
    )


def bundled_poset(name: str) -> SimplicialPoset:
    return SimplicialPoset.from_json_text(bundled_poset_text(name))


def resolve_poset(source: str) -> SimplicialPoset:
    """Load a poset from a file path, or by bundled name if no such file."""
    if os.path.exists(source):
        return SimplicialPoset.from_file(source)
    if source in BUNDLED:
        return bundled_poset(source)
    raise FileNotFoundError(
        f"no poset file {source!r} and no bundled poset of that name"
    )
