"""The one exact elimination in ``facering.linalg``, against brute force
and against the field-scalar Gauss-Jordan in ``helpers``."""

import random
from fractions import Fraction
from itertools import product

import pytest
from helpers import (
    ALL_BUNDLED,
    RP2_FACETS,
    face_poset,
    reference_kernel_basis,
    reference_rank,
)

from facering import Envelope, PolyRing, build_scalar_complex, bundled_poset
from facering.complexes import _integer_slice, _slice_members
from facering.linalg import _reduce, bareiss_rank, kernel_basis
from facering.scalars import PRIME_BOUND, QQ, FpElement, PrimeField, _is_prime

FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))


def _random_matrix(rng, nrows, ncols, density=0.6):
    return [
        [
            rng.randint(-3, 3) if rng.random() < density else 0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def _apply(mat, vec, field):
    out = []
    for row in mat:
        acc = field.zero
        for a, b in zip(row, vec):
            acc = acc + field.from_int(a) * b
        out.append(acc)
    return out


def _rank(mat, field):
    return bareiss_rank([list(r) for r in mat], field)


def _check_basis(mat, ncols, field, basis):
    """Every vector is killed, and each ends in a one at its own free column,
    where every other vector is zero; so the vectors are independent."""
    free = [max(c for c in range(ncols) if vec[c]) for vec in basis]
    assert free == sorted(set(free))
    for vec, f in zip(basis, free):
        assert all(not v for v in _apply(mat, vec, field))
        unit = [field.one if o is vec else field.zero for o in basis]
        assert [o[f] for o in basis] == unit


@pytest.mark.parametrize("p", [2, 3])
def test_rank_and_kernel_match_brute_force_over_prime_fields(p):
    field = PrimeField(p)
    rng = random.Random(1000 + p)
    elements = [field.from_int(v) for v in range(p)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        mat = _random_matrix(rng, nrows, ncols)
        vectors = list(product(elements, repeat=ncols))
        images = {tuple(v.val for v in _apply(mat, vec, field)) for vec in vectors}
        kernel = [vec for vec in vectors if all(not v for v in _apply(mat, vec, field))]
        basis = kernel_basis(mat, ncols, field)
        assert p ** len(basis) == len(kernel)
        assert p ** _rank(mat, field) == len(images)
        _check_basis(mat, ncols, field, basis)


def test_kernel_over_q():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, nrows, ncols)
        basis = kernel_basis(mat, ncols, QQ)
        _check_basis(mat, ncols, QQ, basis)
        assert _rank(mat, QQ) + len(basis) == ncols


def test_pivot_below_the_first_row():
    mat = [[0, 1], [2, 0]]
    assert kernel_basis(mat, 2, QQ) == []
    assert bareiss_rank(mat, QQ) == 2


def test_no_rows():
    assert bareiss_rank([], QQ) == 0
    assert kernel_basis([], 3, QQ) == [
        [QQ.one, QQ.zero, QQ.zero],
        [QQ.zero, QQ.one, QQ.zero],
        [QQ.zero, QQ.zero, QQ.one],
    ]


def test_all_zero_matrix():
    F3 = PrimeField(3)
    mat = [[0] * 2 for _ in range(3)]
    assert _rank(mat, F3) == 0
    assert kernel_basis(mat, 2, F3) == [[F3.one, F3.zero], [F3.zero, F3.one]]


def test_zero_column_is_free():
    q = Fraction
    mat = [[1, 0, 2], [3, 0, 4]]
    assert kernel_basis(mat, 3, QQ) == [[q(0), q(1), q(0)]]
    assert _rank(mat, QQ) == 2


def test_more_rows_than_columns():
    q = Fraction
    mat = [[1, 2], [2, 4], [0, 0], [3, 6], [1, 2]]
    assert kernel_basis(mat, 2, QQ) == [[q(-2), q(1)]]
    assert _rank(mat, QQ) == 1
    mat.append([0, 5])
    assert kernel_basis(mat, 2, QQ) == []
    assert _rank(mat, QQ) == 2


def test_kernel_leaves_its_rows():
    rows = [[2, 4]]
    kernel_basis(rows, 2, QQ)
    assert rows == [[2, 4]]


def _same(got, want):
    """Equal field scalars of the same type, entry by entry."""
    return got == want and all(
        type(g) is type(w) for u, v in zip(got, want) for g, w in zip(u, v)
    )


def _bundled_posets():
    posets = [bundled_poset(name) for name in ALL_BUNDLED]
    return posets + [face_poset(RP2_FACETS)]


def _differential_slices(poset):
    """Every 0/1-degree slice of the scalar complex of poset, as (integer
    rows, number of columns)."""
    sc = build_scalar_complex(poset)
    for a in product((0, 1), repeat=len(poset.atoms)):
        for i in range(1, poset.max_rank + 1):
            rows, cols = _slice_members(sc, a, i - 1), _slice_members(sc, a, i)
            yield _integer_slice(sc, rows, cols), len(cols)


def _annihilator_slices(poset, field):
    """The integer rows of every annihilator slice of poset over field at 0/1
    degrees (0/1/2 up to four atoms) and depths 0-3, with their number of
    columns."""
    ring = PolyRing(poset, field)
    top = 2 if ring.natoms <= 4 else 1
    for x in poset.elements:
        env = Envelope.of(ring, x)
        for a in product(range(top + 1), repeat=ring.natoms):
            for depth in range(4):
                mons, rows = env._annihilator_rows(a, depth)
                if mons:
                    yield rows, len(mons)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_integer_elimination_matches_field_reference(field):
    rng = random.Random(f"reference/{field!r}")
    for _ in range(80):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        mat = [
            [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert bareiss_rank(mat, field) == reference_rank(mat, field)
        assert _same(kernel_basis(mat, ncols, field), reference_kernel_basis(mat, ncols, field))


@pytest.mark.parametrize("field", FIELDS[:3], ids=repr)
def test_bundled_slices_match_field_reference(field):
    """Every differential slice and every annihilator slice of the bundled
    posets and RP^2 has the reference's rank and, exactly, its kernel."""
    for poset in _bundled_posets():
        slices = [*_differential_slices(poset), *_annihilator_slices(poset, field)]
        for rows, ncols in slices:
            assert bareiss_rank(rows, field) == reference_rank(rows, field)
            assert _same(kernel_basis(rows, ncols, field), reference_kernel_basis(rows, ncols, field))


def test_residues_are_taken_before_eliminating():
    # 2 is a unit over Q and F3 and zero over F2
    for field, rank in ((QQ, 1), (PrimeField(3), 1), (PrimeField(2), 0)):
        assert bareiss_rank([[2]], field) == rank
        assert kernel_basis([[2]], 1, field) == ([] if rank else [[field.one]])
    assert bareiss_rank([[2, 1], [0, 2]], PrimeField(2)) == 1


def test_rp2_boundary_ranks_depend_on_the_field():
    # the ten triangles of RP^2 have independent boundaries over Q only
    poset = face_poset(RP2_FACETS)
    sc = build_scalar_complex(poset)
    zero = (0,) * len(poset.atoms)
    mat = _integer_slice(sc, _slice_members(sc, zero, 2), _slice_members(sc, zero, 3))
    ranks = {}
    for field in FIELDS:
        ranks[field.char] = bareiss_rank(mat, field)
        assert ranks[field.char] == reference_rank(mat, field)
    assert ranks == {0: 10, 2: 9, 3: 10, 5: 10}


def test_prime_below_the_bound_keeps_residues():
    p = next(q for q in range(PRIME_BOUND - 2, 0, -2) if _is_prime(q))
    field = PrimeField(p)
    rng = random.Random(p)
    mat = [[rng.randrange(-p, p) for _ in range(9)] for _ in range(6)]
    mat.append([a + 2 * b for a, b in zip(mat[0], mat[1])])
    red, pivots = _reduce(mat, 9, p)
    assert len(pivots) == 6
    assert all(0 <= v < p for row in red for v in row)
    assert bareiss_rank(mat, field) == reference_rank(mat, field) == 6
    assert _same(kernel_basis(mat, 9, field), reference_kernel_basis(mat, 9, field))


def test_content_division_keeps_bundled_entries_small():
    """Over Q every entry left by ``_reduce`` on a bundled slice is -1, 0 or
    1; clearing RP^2's boundary without dividing out the content leaves a
    2."""
    for poset in _bundled_posets():
        for rows, ncols in [*_differential_slices(poset), *_annihilator_slices(poset, QQ)]:
            red, _ = _reduce(rows, ncols, 0)
            assert all(abs(v) <= 1 for row in red for v in row)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_kernel_builds_one_scalar_per_pivot_entry(field, monkeypatch):
    """The elimination runs on ints: the field scalars built in one call are
    the nonzero kernel entries off the free columns, fewer than the entries
    of the basis."""
    built = []
    if field is QQ:
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    else:
        init = FpElement.__init__

        def counting_init(self, val, p):
            built.append(val)
            init(self, val, p)

        monkeypatch.setattr(FpElement, "__init__", counting_init)
    rng = random.Random(3)
    mat = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(5)]
    basis = kernel_basis(mat, 9, field)
    entries = sum(len(vec) for vec in basis)
    pivot_entries = sum(1 for vec in basis for v in vec if v) - len(basis)
    assert len(basis) == 4 and pivot_entries > 0
    assert len(built) == pivot_entries < entries
