from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpinc.errors import NotReducibleError, ParameterError
from mpinc.linalg import RatMatrix, rat_matrix_mod_p
from mpinc.rationals import is_prime, rat_mod_p

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=50
)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_rat_mod_p_examples():
    assert rat_mod_p(Fraction(1, 3), 5) == 2
    # -1/6 mod 5: 6 = 1, so -1 = 4
    assert rat_mod_p(Fraction(-1, 6), 5) == 4


def test_primality_is_tested_once_per_modulus():
    # a dense reduction checks its modulus on every entry; the trial
    # division must run only for the first
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
