"""GF(q) arithmetic for prime powers q.

An element of GF(q), q = p^e, is the int k in range(q) whose base-p digits
c_0, ..., c_{e-1} (c_0 first) are its coefficients over GF(p): k stands
for sum c_i x^i. So 0 and 1 are the field's zero and one, and range(q)
lists the elements in the pinned order. The field model is pinned too:
the modulus is the lexicographically least monic irreducible polynomial
of degree e over GF(p), coefficient sequences compared low-degree-first.
Sums and products are read from q x q tables, built for enumeration work
only (q <= 9). factor_prime_power accepts any prime power, so class values
need no tables.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .errors import InvalidFieldError
from .rationals import is_prime


def _integer_root(q, e):
    """The floor of the e-th root of q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def factor_prime_power(q):
    """(p, e) with q = p^e; InvalidFieldError when q is not a prime power.

    Only q's largest exact root p is tested for primality: a prime power
    has its prime as that root. e = 1 always gives one, q itself.
    """
    if isinstance(q, int) and q >= 2:
        for e in range(q.bit_length(), 0, -1):
            p = _integer_root(q, e)
            if p**e == q:
                break
        if is_prime(p):
            return p, e
    raise InvalidFieldError(f"{q} is not a prime power")


def _poly_rem(num, den, p):
    """num mod den over GF(p), for little-endian coefficient lists and a
    monic den; the remainder keeps len(den) - 1 coefficients."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        coef = num[i]
        if coef:
            for j, d in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - coef * d) % p
    return num[:dd]


def _irreducible(poly, p):
    # poly: little-endian, monic. Reducible iff some monic divisor of
    # degree 1..deg//2 divides it exactly.
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not any(_poly_rem(poly, tail + (1,), p)):
                return False
    return True


class FieldSpec(namedtuple("FieldSpec", "q p e modulus add mul")):
    """A concrete model of GF(q): q = p^e, the pinned modulus polynomial
    (little-endian, monic; x itself when e = 1), and the tables of the int
    elements: add[a][b] = a + b and mul[a][b] = a b, q x q tuples of ints.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def build_field(q):
    """FieldSpec for GF(q); InvalidFieldError when q is not a prime power."""
    p, e = factor_prime_power(q)
    # product() varies the last coordinate fastest, so the tails run
    # through the monic polynomials low-degree-first lexicographically
    monics = (tail + (1,) for tail in product(range(p), repeat=e))
    modulus = next(poly for poly in monics if _irreducible(poly, p))
    digits = [[k // p**i % p for i in range(e)] for k in range(q)]

    def code(coefs):
        return sum(c * p**i for i, c in enumerate(coefs))

    def times(a, b):
        raw = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] = (raw[i + j] + x * y) % p
        return _poly_rem(raw, modulus, p)

    add = tuple(tuple(code((x + y) % p for x, y in zip(a, b)) for b in digits) for a in digits)
    mul = tuple(tuple(code(times(a, b)) for b in digits) for a in digits)
    return FieldSpec(q, p, e, modulus, add, mul)


def render_element(a, f):
    """Display form: the integer itself for prime fields, [c0,c1,...] otherwise."""
    if f.e == 1:
        return str(a)
    return "[" + ",".join(str(a // f.p**i % f.p) for i in range(f.e)) + "]"
