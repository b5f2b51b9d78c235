"""Exact rational scalars and their reduction mod p.

Rationals are fractions.Fraction: arbitrary precision, eagerly reduced,
denominator always positive, zero canonically 0/1. Nothing in the package
ever touches floating point.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import NoInverseError, NotReducibleError, ParameterError

class ModResidue(NamedTuple):
    """An element of GF(p), p prime: value in [0, p)."""

    value: int
    modulus: int


def is_prime(p):
    """Trial-division primality test; every modulus here is desk scale."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_prime(p):
    if not is_prime(p):
        raise ParameterError(f"modulus {p} is not prime")


def mod_inverse(a, p):
    """x with a*x = 1 mod p, as a ModResidue."""
    _check_prime(p)
    if a % p == 0:
        raise NoInverseError(f"{a} has no inverse mod {p}")
    return ModResidue(pow(a, -1, p), p)


def rat_mod_p(x, p):
    """Reduce a rational to GF(p): numerator * denominator^-1 mod p.

    Raises NotReducibleError when p divides the denominator, which is the
    signal that a closed form does not survive in characteristic p.
    """
    _check_prime(p)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotReducibleError(f"denominator {x.denominator} vanishes mod {p}")
    inv = pow(x.denominator, -1, p)
    return ModResidue((x.numerator * inv) % p, p)
