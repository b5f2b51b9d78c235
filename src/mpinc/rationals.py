"""Exact rational scalars and their reduction mod p.

Rationals are fractions.Fraction: arbitrary precision, eagerly reduced,
denominator always positive, zero canonically 0/1. Nothing in the package
ever touches floating point.
"""

from fractions import Fraction
from functools import cache
from math import isqrt

from .errors import NotReducibleError, ParameterError


@cache
def is_prime(p):
    """Trial-division primality test, run once per modulus; every modulus
    here is desk scale."""
    if p < 4:
        return p > 1
    return p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2))


def _check_prime(p):
    if not is_prime(p):
        raise ParameterError(f"modulus {p} is not prime")


def rat_mod_p(x, p):
    """Reduce a rational to GF(p): numerator * denominator^-1 mod p, as an
    int in [0, p).

    Raises NotReducibleError when p divides the denominator, which is the
    signal that a closed form does not survive in characteristic p.
    """
    _check_prime(p)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotReducibleError(f"denominator {x.denominator} vanishes mod {p}")
    inv = pow(x.denominator, -1, p)
    return (x.numerator * inv) % p
