from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpinc.errors import NotReducibleError, ParameterError
from mpinc.rationals import ModResidue, is_prime, rat_mod_p

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=50
)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_rat_mod_p_examples():
    assert rat_mod_p(Fraction(1, 3), 5) == ModResidue(2, 5)
    # -1/6 mod 5: 6 = 1, so -1 = 4
    assert rat_mod_p(Fraction(-1, 6), 5) == ModResidue(4, 5)


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
    add = rat_mod_p(x + y, p).value
    assert add == (rat_mod_p(x, p).value + rat_mod_p(y, p).value) % p
    mul = rat_mod_p(x * y, p).value
    assert mul == (rat_mod_p(x, p).value * rat_mod_p(y, p).value) % p
