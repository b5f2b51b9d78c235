from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpinc.errors import NotReducibleError, ParameterError
from mpinc.linalg import RatMatrix, rat_matrix_mod_p
from mpinc.rationals import PRIMALITY_BOUND, is_prime, rat_mod_p

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=50
)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_matches_a_sieve_below_200000():
    n = 200_000
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
    # __wrapped__ skips the cache, which would otherwise hold every n
    assert [n for n in range(n) if is_prime.__wrapped__(n)] == [
        n for n in range(n) if sieve[n]
    ]


@pytest.mark.parametrize("n, prime", [
    # strong pseudoprimes to the first 4, 11 and 12 prime bases
    (3215031751, False),
    (3825123056546413051, False),
    (318665857834031151167461, False),
    (2**61 - 1, True),
    (10**16 + 61, True),
    (-7, False),
])
def test_is_prime_large(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_at_the_bound():
    # the bound itself is a strong pseudoprime to all 13 bases
    assert is_prime(PRIMALITY_BOUND - 2) is False
    with pytest.raises(ParameterError, match=str(PRIMALITY_BOUND)):
        is_prime(PRIMALITY_BOUND)


def test_rat_mod_p_examples():
    assert rat_mod_p(Fraction(1, 3), 5) == 2
    # -1/6 mod 5: 6 = 1, so -1 = 4
    assert rat_mod_p(Fraction(-1, 6), 5) == 4


def test_primality_is_tested_once_per_modulus():
    # a dense reduction checks its modulus on every entry; the primality
    # test must run only for the first
    p = 1_000_003
    is_prime.cache_clear()
    X = RatMatrix(3, 4, tuple(Fraction(i, 7) for i in range(12)))
    rat_matrix_mod_p(X, p)
    assert rat_mod_p(Fraction(1, 2), p) == (p + 1) // 2
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 12)


def test_rat_mod_p_not_reducible():
    with pytest.raises(NotReducibleError):
        rat_mod_p(Fraction(1, 3), 3)


def test_rat_mod_p_rejects_composite_modulus():
    with pytest.raises(ParameterError):
        rat_mod_p(Fraction(3), 9)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals, rationals, st.sampled_from([5, 7, 11, 13]))
def test_rat_mod_p_is_ring_homomorphism(x, y, p):
    if x.denominator % p == 0 or y.denominator % p == 0:
        return
    # sums and products of p-coprime-denominator rationals stay reducible
    add = rat_mod_p(x + y, p)
    assert add == (rat_mod_p(x, p) + rat_mod_p(y, p)) % p
    mul = rat_mod_p(x * y, p)
    assert mul == (rat_mod_p(x, p) * rat_mod_p(y, p)) % p
