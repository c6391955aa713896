"""The one exact elimination in ``facering.linalg``, against brute force."""

import random
from fractions import Fraction
from itertools import product

import pytest

from facering.linalg import bareiss_rank, kernel_basis
from facering.scalars import QQ, PrimeField


def _random_matrix(rng, field, nrows, ncols, density=0.6):
    return [
        [
            field.from_int(rng.randint(-3, 3)) if rng.random() < density else field.zero
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def _apply(mat, vec, field):
    out = []
    for row in mat:
        acc = field.zero
        for a, b in zip(row, vec):
            acc = acc + a * b
        out.append(acc)
    return out


def _rank(mat):
    return bareiss_rank([list(r) for r in mat])


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
        mat = _random_matrix(rng, field, nrows, ncols)
        vectors = list(product(elements, repeat=ncols))
        images = {tuple(v.val for v in _apply(mat, vec, field)) for vec in vectors}
        kernel = [vec for vec in vectors if all(not v for v in _apply(mat, vec, field))]
        basis = kernel_basis(mat, ncols, field)
        assert p ** len(basis) == len(kernel)
        assert p ** _rank(mat) == len(images)
        _check_basis(mat, ncols, field, basis)


def test_kernel_over_q():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, QQ, nrows, ncols)
        basis = kernel_basis(mat, ncols, QQ)
        _check_basis(mat, ncols, QQ, basis)
        assert _rank(mat) + len(basis) == ncols


def test_pivot_below_the_first_row():
    mat = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]
    assert kernel_basis(mat, 2, QQ) == []
    assert bareiss_rank(mat) == 2


def test_no_rows():
    assert bareiss_rank([]) == 0
    assert kernel_basis([], 3, QQ) == [
        [QQ.one, QQ.zero, QQ.zero],
        [QQ.zero, QQ.one, QQ.zero],
        [QQ.zero, QQ.zero, QQ.one],
    ]


def test_all_zero_matrix():
    F3 = PrimeField(3)
    mat = [[F3.zero] * 2 for _ in range(3)]
    assert _rank(mat) == 0
    assert kernel_basis(mat, 2, F3) == [[F3.one, F3.zero], [F3.zero, F3.one]]


def test_zero_column_is_free():
    q = Fraction
    mat = [[q(1), q(0), q(2)], [q(3), q(0), q(4)]]
    assert kernel_basis(mat, 3, QQ) == [[q(0), q(1), q(0)]]
    assert _rank(mat) == 2


def test_more_rows_than_columns():
    q = Fraction
    mat = [[q(1), q(2)], [q(2), q(4)], [q(0), q(0)], [q(3), q(6)], [q(1), q(2)]]
    assert kernel_basis(mat, 2, QQ) == [[q(-2), q(1)]]
    assert _rank(mat) == 1
    mat.append([q(0), q(5)])
    assert kernel_basis(mat, 2, QQ) == []
    assert _rank(mat) == 2


def test_kernel_leaves_its_rows():
    rows = [[Fraction(2), Fraction(4)]]
    kernel_basis(rows, 2, QQ)
    assert rows == [[Fraction(2), Fraction(4)]]
