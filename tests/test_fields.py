from fractions import Fraction

import pytest

from formalpatch.fields import QQ, PrimeField


def test_rationals_basics():
    assert QQ.p == 0
    assert QQ.one == Fraction(1)
    assert QQ.of_ratio(3, 4) == Fraction(3, 4)
    assert QQ.text(Fraction(-3, 4)) == "-3/4"
    assert QQ.text(Fraction(2)) == "2"


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.of_int(-1) == 6
    assert F.of_ratio(1, 3) == 5  # 3*5 = 15 = 1 mod 7
    assert F.of_ratio(2, 3) == 3
    assert F.text(6) == "6"


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_rejects_huge_modulus():
    with pytest.raises(ValueError):
        PrimeField((1 << 31) + 11)


def test_field_equality_is_by_characteristic():
    assert PrimeField(13) == PrimeField(13)
    assert PrimeField(13) != PrimeField(17)
    assert QQ != PrimeField(13)
