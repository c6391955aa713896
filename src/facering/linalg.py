"""Exact dense linear algebra over an exact field: rank and kernel bases.

Slice ranks of the scalar complex and annihilator kernels of the envelopes
share one elimination, ``_reduce``.  The simplicial oracle in ``complexes``
keeps its own, so that it stays an independent check.
"""

from __future__ import annotations


def _reduce(mat, ncols):
    """Row-reduce mat in place to reduced echelon form over its field (exact
    scalars, so no rounding) and return the pivot columns.

    Each pivot row is scaled to a leading one and cleared from every other
    row; rows already zero in the pivot column are skipped, not rescaled.
    """
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


def bareiss_rank(rows) -> int:
    """Rank of the matrix given by rows, a list of lists of exact scalars,
    which is consumed: ``_reduce`` row-reduces it in place over its field.

    The elimination is Gauss-Jordan, not Bareiss; the name stays because
    ``perfbench/profiling.py`` counts the calls to it.
    """
    return len(_reduce(rows, len(rows[0]) if rows else 0))


def kernel_basis(rows, ncols: int, field):
    """Basis of the right kernel of the matrix given by rows: one vector per
    free column of the reduced echelon form, equal to one there and zero on
    the other free columns."""
    mat = [list(r) for r in rows]
    pivots = _reduce(mat, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[f] = field.one
        for i, c in enumerate(pivots):
            vec[c] = -mat[i][f]
        basis.append(vec)
    return basis
