from fractions import Fraction

import pytest

from facering import Envelope, PolyRing, bundled_poset
from facering.scalars import (
    PRIME_BOUND,
    QQ,
    FieldError,
    PrimeField,
    add_term,
    check_integers,
    check_non_negative,
    field_from_name,
)


def test_rationals():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.format(Fraction(-1, 3)) == "-1/3"
    assert QQ.char == 0


def test_prime_field_arithmetic():
    F5 = PrimeField(5)
    a, b = F5.from_int(3), F5.from_int(4)
    assert (a + b).val == 2
    assert (a * b).val == 2
    assert (a - b).val == 4
    assert (-a).val == 2
    assert (a / b) * b == a
    assert bool(F5.zero) is False and bool(F5.one) is True
    with pytest.raises(ZeroDivisionError):
        a / F5.zero


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("F7").p == 7
    assert field_from_name("Fp", prime=11).p == 11
    with pytest.raises(FieldError):
        field_from_name("F4")
    with pytest.raises(FieldError):
        field_from_name("Fp")
    with pytest.raises(FieldError):
        field_from_name("R")


@pytest.mark.parametrize("name", ["Q", "QQ", "F3", "F5", "R"])
def test_prime_only_goes_with_fp(name):
    with pytest.raises(FieldError, match="Fp"):
        field_from_name(name, prime=5)


def test_large_primes_accepted():
    for p in (10**18 + 3, 2**61 - 1):
        assert PrimeField(p).from_int(p + 1) == PrimeField(p).one


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        3215031751,  # 151 * 751 * 28351, strong pseudoprime to bases 2, 3, 5, 7
        2**61 + 1,
        10**18 + 1,
        # 399165290221 * 798330580441, strong pseudoprime to bases 2..37
        318665857834031151167461,
    ],
)
def test_composites_rejected(n):
    with pytest.raises(FieldError, match="not a prime"):
        PrimeField(n)


def test_prime_above_bound_rejected():
    with pytest.raises(FieldError, match=str(PRIME_BOUND)):
        PrimeField(PRIME_BOUND + 2)
    with pytest.raises(FieldError, match="bound"):
        field_from_name("Fp", prime=2**89 - 1)


def test_small_primes():
    primes = [n for n in range(200) if all(n % d for d in range(2, n))]
    got = []
    for n in range(200):
        try:
            PrimeField(n)
            got.append(n)
        except FieldError:
            pass
    assert got == primes[2:]


def test_add_term_cancellation_removes_key():
    terms = {"a": Fraction(1, 2), "b": Fraction(1)}
    add_term(terms, "a", Fraction(-1, 2))
    assert terms == {"b": 1}
    add_term(terms, "b", -QQ.one)
    assert terms == {}


def test_add_term_never_stores_zero():
    F2 = PrimeField(2)
    terms = {}
    add_term(terms, "a", F2.from_int(2))
    assert terms == {}
    add_term(terms, "b", F2.zero)
    add_term(terms, "a", F2.one)
    add_term(terms, "a", F2.one)
    assert terms == {}


def test_add_term_plain_ints():
    terms = {}
    for key, c in [("a", 2), ("b", -1), ("a", -2), ("b", 0), ("c", 3)]:
        add_term(terms, key, c)
    assert terms == {"b": -1, "c": 3}
    add_term(terms, "b", 1)
    assert terms == {"c": 3}


def test_add_term_first_insertion_order():
    terms = {}
    for key, c in [("z", 1), ("a", 1), ("m", 1), ("a", 2), ("z", 5)]:
        add_term(terms, key, c)
    assert list(terms) == ["z", "a", "m"]
    assert terms == {"z": 6, "a": 3, "m": 1}


@pytest.mark.parametrize("values", [(True,), (1, False), (1, 2.0), (Fraction(1),)])
def test_check_integers_rejects_every_non_int(values):
    # a bool is an int subclass, and would be certified as true or false
    with pytest.raises(ValueError, match="exponents must be integers"):
        check_integers(values, "exponents")


def test_check_integers_returns_ints_unchanged():
    assert check_integers((), "exponents") == ()
    assert check_integers((0, -3, 2**70), "exponents") == (0, -3, 2**70)


@pytest.mark.parametrize("values", [(-1,), (0, 3, -2), (-(2**70),)])
def test_check_non_negative_rejects_a_negative_entry(values):
    with pytest.raises(ValueError, match=r"bound must be non-negative, got \("):
        check_non_negative(values, "bound")


@pytest.mark.parametrize("values", [(True,), (1, 2.0), (Fraction(1),)])
def test_check_non_negative_rejects_every_non_int(values):
    with pytest.raises(ValueError, match="bound must be integers"):
        check_non_negative(values, "bound")


def test_check_non_negative_returns_its_values_unchanged():
    assert check_non_negative((), "bound") == ()
    assert check_non_negative((0, 2, 2**70), "bound") == (0, 2, 2**70)
    assert check_non_negative([0, 1], "bound") == [0, 1]


@pytest.mark.parametrize(
    "field, c",
    [(QQ, 0.5), (QQ, 1), (PrimeField(2), 1), (PrimeField(2), PrimeField(3).one)],
    ids=["Q-float", "Q-int", "F2-int", "F2-F3"],
)
def test_scale_rejects_what_is_not_a_scalar_of_the_field(field, c):
    # over Q a float coefficient was stored; over F2 an int failed only
    # when an FpElement multiplied by it
    ring = PolyRing(bundled_poset("p1"), field)
    for elem in (ring.variable("x"), Envelope.of(ring, "x").unit()):
        with pytest.raises(ValueError, match=f"not a scalar of {field!r}"):
            elem.scale(c)
        assert elem.scale(field.zero).is_zero()
        assert elem.scale(field.from_int(3)) == elem + elem + elem
