"""Binomials, Gaussian binomials, the alternating-sum identities built on them,
and the subsets of [1, n] in colexicographic order.

all_subsets is cached per process, as subspace enumeration is: the incidence
builders, the class rows and the design matrices ask for the same (n, r)
again and again, and each gets the one tuple of colex tuples made for it,
shared and immutable.

Both binomial flavours use the convention that out-of-range arguments
(anything violating 0 <= m <= n) give 0. q is always a concrete integer >= 2;
there is no symbolic-q mode.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import ParameterError


def binomial(n, m):
    """C(n, m) for 0 <= m <= n, else 0."""
    if m < 0 or n < 0 or m > n:
        return 0
    return math.comb(n, m)


@cache
def all_subsets(n, r):
    """All r-subsets of [1, n] in colexicographic order.

    Cached per process: every call with the same (n, r) returns the same
    tuple of tuples, shared by every caller and never mutated.
    """
    if not (0 <= r <= n):
        raise ParameterError(f"need 0 <= r <= n, got r={r}, n={n}")
    subsets = sorted(combinations(range(1, n + 1), r), key=lambda s: s[::-1])
    return tuple(subsets)


def _check_q(q):
    if not isinstance(q, int) or q < 2:
        raise ParameterError(f"q must be an integer >= 2, got {q!r}")


def q_integer(n, q):
    """[n]_q = (q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1)."""
    _check_q(q)
    if n < 0:
        raise ParameterError(f"q-integer needs n >= 0, got {n}")
    return (q**n - 1) // (q - 1)


def gaussian_binomial(n, m, q):
    """[n choose m]_q for 0 <= m <= n, else 0.

    Computed by the product formula prod_{j=1..m} (q^(n-m+j)-1)/(q^j-1);
    every partial product is itself a Gaussian binomial, so the stepwise
    integer divisions are exact.
    """
    _check_q(q)
    if m < 0 or n < 0 or m > n:
        return 0
    m = min(m, n - m)
    out = 1
    for j in range(1, m + 1):
        out = out * (q ** (n - m + j) - 1) // (q**j - 1)
    return out


def int_polynomial(coeffs):
    """Canonical coefficient tuple: trailing zeros stripped, () is the zero polynomial."""
    coeffs = tuple(int(c) for c in coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def poly_eval(coeffs, x):
    out = 0
    for c in reversed(int_polynomial(coeffs)):
        out = out * x + c
    return out


def ruiz_sum(n, p):
    """sum_{i=0..n} (-1)^i C(n,i) p(i), exactly; 0 whenever deg p < n."""
    if n < 1:
        raise ParameterError(f"ruiz_sum needs n >= 1, got {n}")
    total = sum((-1) ** i * binomial(n, i) * poly_eval(p, i) for i in range(n + 1))
    return Fraction(total)


def q_ruiz_sum(n, m, q):
    """sum_{i=0..n} (-1)^i [n choose i]_q q^-(i(n-i)+C(i,2)) q^(im); 0 for 0 <= m < n."""
    _check_q(q)
    if n < 1:
        raise ParameterError(f"q_ruiz_sum needs n >= 1, got {n}")
    if m < 0:
        raise ParameterError(f"q_ruiz_sum needs m >= 0, got {m}")
    total = Fraction(0)
    for i in range(n + 1):
        weight = Fraction(q**i) ** m / Fraction(q) ** (i * (n - i) + binomial(i, 2))
        total += (-1) ** i * gaussian_binomial(n, i, q) * weight
    return total


def gauss_binomial_formula_check(n, x, a, q):
    """Whether prod_{j=0..n-1}(x + q^j a) = sum_i [n choose i]_q q^(C(i,2)) a^i x^(n-i).

    Exact evaluation of both sides; the identity holds for all rational x, a.
    """
    _check_q(q)
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    x = Fraction(x)
    a = Fraction(a)
    lhs = Fraction(1)
    for j in range(n):
        lhs *= x + q**j * a
    rhs = sum(
        gaussian_binomial(n, i, q) * q ** binomial(i, 2) * a**i * x ** (n - i)
        for i in range(n + 1)
    )
    return lhs == rhs
