"""Tests for the scalar fields: the primality check on the characteristic,
and exact division and conversion of engine scalars."""

import re
import time
from fractions import Fraction

import pytest

from sphtwist.fields import Field, Fp, _is_prime, div, raw


def trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 5000) if _is_prime(n)] == [
        n for n in range(-3, 5000) if trial_division(n)
    ]


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1, 100000000000031, 2**61 - 1,
                               2**64 - 59])
def test_large_primes_accepted_at_once(p):
    start = time.perf_counter()
    assert Field(p).char == p
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("c", [
    0, 1, -7, 4, 561, 41041, 3215031751,  # Carmichael and strong pseudoprimes
    (2**31 - 1) * (2**31 - 1), 2**64 + 1, 2**64 + 13,
])
def test_non_primes_and_huge_characteristics_rejected(c):
    with pytest.raises(ValueError):
        Field(c)


@pytest.mark.parametrize("c", [7.0, "7", True, Fraction(7)])
def test_non_integer_characteristics_rejected(c):
    # 7.0 and Fraction(7) pass the primality test, and "7" fails it with
    # TypeError; a characteristic that is not an int breaks pow(x, -1, p)
    with pytest.raises(ValueError, match="^characteristic must be a prime "
                       "below 2\\^64, got %s$" % re.escape(repr(c))):
        Field(c)


@pytest.mark.parametrize("a,b,want", [
    (-6, 3, -2), (6, -3, -2), (-6, -3, 2), (0, 5, 0), (12, 4, 3),
    (7, 2, Fraction(7, 2)), (-7, 2, Fraction(-7, 2)), (7, -2, Fraction(-7, 2)),
    (-1, -3, Fraction(1, 3)), (4, 6, Fraction(2, 3)),
    (Fraction(1, 2), 3, Fraction(1, 6)), (3, Fraction(3, 2), 2),
    (Fraction(3, 2), Fraction(3, 2), 1),
])
def test_div_over_q_is_exact(a, b, want):
    got = div(a, b, 0)
    assert got == want
    # two ints give an int exactly when the division is even
    if type(a) is int and type(b) is int:
        assert type(got) is (int if a % b == 0 else Fraction)


@pytest.mark.parametrize("p", [2, 3, 7, 13, 2**61 - 1])
def test_div_over_fp_inverts_residues(p):
    for b in range(1, min(p, 40)):
        assert div(1, b, p) * b % p == 1
        for a in (0, 1, p - 1, b):
            got = div(a, b, p)
            assert type(got) is int and 0 <= got < p
            assert got == (Fp(a, p) / Fp(b, p)).v


def test_raw_gives_engine_scalars():
    assert raw(Fp(-1, 7)) == 6 and type(raw(Fp(-1, 7))) is int
    assert raw(Fraction(4, 2)) == 2 and type(raw(Fraction(4, 2))) is int
    assert raw(Fraction(-3)) == -3 and type(raw(Fraction(-3))) is int
    assert raw(Fraction(1, 2)) == Fraction(1, 2)
    assert raw(5) == 5
    for field in (Field(None), Field(7)):
        for x in range(-8, 9):
            assert field.of(raw(field.of(x))) == field.of(x)
            assert field.scalar_to_str(raw(field.of(x))) == field.scalar_to_str(
                field.of(x))


def test_fp_reflected_operators_hash_and_repr():
    x = Fp(3, 7)
    assert 1 - x == Fp(5, 7) and 1 / x == Fp(5, 7) and 2 / x == Fp(3, 7)
    assert type(1 - x) is Fp and type(1 / x) is Fp
    with pytest.raises(TypeError):  # neither side takes the other
        Fraction(1, 2) - x
    with pytest.raises(TypeError):
        Fraction(1, 2) / x
    assert hash(x) == hash(Fp(10, 7)) and len({x, Fp(10, 7), Fp(3, 11)}) == 2
    assert repr(Fp(-1, 7)) == "Fp(6, 7)"
    with pytest.raises(ValueError, match="mixed characteristics 7 and 11"):
        x + Fp(1, 11)
