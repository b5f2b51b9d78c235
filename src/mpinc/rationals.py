"""Exact rational scalars and their reduction mod p.

Rationals are fractions.Fraction: arbitrary precision, eagerly reduced,
denominator always positive, zero canonically 0/1. Nothing in the package
ever touches floating point.
"""

from fractions import Fraction
from functools import cache

from .errors import NotReducibleError, ParameterError

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2017, psi_13).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


@cache
def is_prime(n):
    """Deterministic Miller-Rabin, run once per number.

    Exact for n < PRIMALITY_BOUND; at or above it, ParameterError names n.
    """
    if n >= PRIMALITY_BOUND:
        raise ParameterError(
            f"{n} is too large to test for primality (the exact test needs n < {PRIMALITY_BOUND})"
        )
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
