"""Tests for the scalar fields: the primality check on the characteristic."""

import time

import pytest

from sphtwist.fields import Field, _is_prime


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
