"""Exact dense linear algebra over an exact field: rank and kernel bases.

Slice ranks of the scalar complex and annihilator kernels of the envelopes
share one elimination, ``_reduce``.  The simplicial oracle in ``complexes``
keeps its own, so that it stays an independent check.

Matrices come in as rows of Python ints, read in the field of characteristic
p (0 for Q), and the elimination stays on ints: a row is cleared by
``row_i <- piv*row_i - f*row_r``, after which each entry is reduced mod p
over F_p, or the row is divided by its content (the gcd of its entries) over
Q.  Either way each row stays a nonzero multiple of the row that
field-scalar Gauss-Jordan, with pivot rows scaled to a leading one, holds at
the same step.  So the pivot columns are the same, and each kernel entry
-e/d, with d the pivot, is the same field scalar: the bases are unchanged.
Field scalars are built only there, at the edge, one per nonzero kernel
entry.  Over F_p the input is reduced mod p before any elimination: a
kernel over F_p is not the reduction of the kernel over Q.
"""

from __future__ import annotations

from math import gcd


def _reduce(rows, ncols, p):
    """Integer reduced echelon form of rows over the field of characteristic
    p, and its pivot columns, as (matrix, pivots); rows is left as it is.

    Pivot rows are not scaled.  Every other row with a nonzero entry in the
    pivot column is cleared against it and then reduced mod p, or divided by
    its content when p is 0, so entries stay below p, or small.
    """
    if p:
        mat = [[v % p for v in r] for r in rows]
    else:
        mat = [list(r) for r in rows]
    m = len(mat)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        k = next((i for i in range(r, m) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        row = mat[r]
        piv = row[c]
        for i in range(m):
            f = mat[i][c]
            if f and i != r:
                if p:
                    mat[i] = [(piv * a - f * b) % p for a, b in zip(mat[i], row)]
                else:
                    new = [piv * a - f * b for a, b in zip(mat[i], row)]
                    g = gcd(*new)
                    mat[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
    return mat, pivots


def bareiss_rank(rows, field) -> int:
    """Rank over field of the matrix given by rows, a list of lists of ints,
    which is left as it is: ``_reduce`` eliminates on a copy, in integers.

    The elimination is fraction-free Gauss-Jordan, not Bareiss; the name
    stays because ``perfbench/profiling.py`` counts the calls to it.
    """
    return len(_reduce(rows, len(rows[0]) if rows else 0, field.char)[1])


def kernel_basis(rows, ncols: int, field):
    """Basis of the right kernel over field of the matrix given by rows, a
    list of lists of ints: one vector per free column of the reduced echelon
    form, equal to one there and zero on the other free columns.  At a pivot
    column it holds -e/d, with d the pivot and e the row's entry at the free
    column."""
    mat, pivots = _reduce(rows, ncols, field.char)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, c in zip(mat, pivots):
            if row[f]:
                vec[c] = field.ratio(-row[f], row[c])
        basis.append(vec)
    return basis
