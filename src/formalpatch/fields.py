"""Exact coefficient fields: the rationals and prime fields F_p (p < 2^31).

Field objects carry the metadata the rest of the package needs (the
characteristic, literal construction, text rendering).  The arithmetic on
coefficients themselves happens in the kernel, keyed by the integer `p`
(0 means rationals, otherwise the prime): rationals are Fraction values
in lowest terms, F_p residues are plain ints in [0, p).
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Base for the two supported coefficient fields."""

    p: int

    @property
    def one(self):
        raise NotImplementedError

    def of_ratio(self, num: int, den: int):
        """Coefficient for the literal num/den."""
        raise NotImplementedError

    def of_int(self, n: int):
        return self.of_ratio(n, 1)

    def text(self, c) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))


class Rationals(Field):
    p = 0

    @property
    def one(self):
        return Fraction(1)

    def of_ratio(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator literal")
        return Fraction(num, den)

    def text(self, c) -> str:
        return str(c)

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        if p >= 2**31:
            raise ValueError("modulus %r too large (need p < 2^31)" % (p,))
        self.p = p

    @property
    def one(self):
        return 1 % self.p

    def of_ratio(self, num, den):
        den %= self.p
        if den == 0:
            raise ZeroDivisionError("zero denominator literal mod %d" % self.p)
        return num * pow(den, self.p - 2, self.p) % self.p

    def text(self, c) -> str:
        return str(c)

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()
