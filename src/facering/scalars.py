"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Every scalar in the package is a Fraction or a prime-field residue; there is
no floating point anywhere, so all downstream linear algebra is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ValueError):
    pass


class Rationals:
    """Field handle for the rationals; scalars are fractions.Fraction."""

    char = 0
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def ratio(self, n: int, d: int) -> Fraction:
        """n/d for ints n and d != 0, built as one scalar."""
        return Fraction(n, d)

    def binomial(self, n: int, k: int) -> Fraction:
        return Fraction(math.comb(n, k))

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Q"


class FpElement:
    """Residue class modulo a prime, with field arithmetic."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return FpElement(self.val - other.val, self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __mul__(self, other):
        return FpElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        if not other.val:
            raise ZeroDivisionError("division by zero residue")
        return FpElement(self.val * pow(other.val, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FpElement)
            and self.p == other.p
            and self.val == other.val
        )

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (psi_13; Sorenson and Webster 2015).  Bases up to 37 alone stop at psi_12 =
# 318665857834031151167461, a strong pseudoprime to each of them.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= p < PRIME_BOUND."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Field handle for the integers modulo a prime p."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= PRIME_BOUND:
            raise FieldError(f"{p} is not below the supported prime bound {PRIME_BOUND}")
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"{p!r} is not a prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self.p)

    def ratio(self, n: int, d: int) -> FpElement:
        """n/d for ints n and d not divisible by p, built as one scalar."""
        return FpElement(n * pow(d, -1, self.p), self.p)

    def binomial(self, n: int, k: int) -> FpElement:
        return FpElement(math.comb(n, k), self.p)

    def parse(self, text: str) -> FpElement:
        try:
            return FpElement(int(text.strip()), self.p)
        except ValueError as exc:
            raise FieldError(f"bad F{self.p} literal {text!r}") from exc

    def format(self, a) -> str:
        return str(a.val)

    def __repr__(self):
        return self.name


QQ = Rationals()


def field_from_name(name: str, prime: int | None = None):
    """Resolve "Q", "F<p>", or ("Fp", prime) to a field handle."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name == "Fp":
        if prime is None:
            raise FieldError("field Fp needs an explicit prime")
        return PrimeField(prime)
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise FieldError(f"unknown field {name!r}")


def add_term(terms, key, c):
    """Add c to the coefficient of key in the sparse dict terms, in place.

    A sum that cancels removes the key and a zero c is never stored, so terms
    never holds a zero coefficient.  Works for any exact scalar, plain int
    included.
    """
    s = terms.get(key)
    if s is None:
        if c:
            terms[key] = c
    else:
        s = s + c
        if s:
            terms[key] = s
        else:
            del terms[key]
