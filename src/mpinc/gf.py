"""GF(q) arithmetic for prime powers q, and matrices over GF(q).

Elements are little-endian coefficient tuples of length e over GF(p),
q = p^e. The field model is pinned: the modulus is the lexicographically
least monic irreducible polynomial of degree e over GF(p), coefficient
sequences compared low-degree-first. Sums and products are table-driven;
tables are built for enumeration work only (q <= 9). factor_prime_power
accepts any prime power, so class values need no tables.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import InvalidFieldError, ShapeError
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
    """(p, e) with q = p^e; InvalidFieldError when q is not a prime power."""
    if q >= 2:
        for e in range(q.bit_length(), 0, -1):
            p = _integer_root(q, e)
            if p**e == q and is_prime(p):
                return p, e
    raise InvalidFieldError(f"{q} is not a prime power")


def _poly_divmod(num, den, p):
    # num, den: little-endian coefficient lists over GF(p), den monic-normalizable
    num = list(num)
    dd = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dd -= 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        coef = num[i] * inv_lead % p
        if coef:
            quot[i - dd] = coef
            for j, d in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - coef * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_zero_poly(c):
    return all(x == 0 for x in c)


def _irreducible(poly, p):
    # poly: little-endian, monic. Reducible iff some monic divisor of
    # degree 1..deg//2 divides it exactly.
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod(poly, den, p)
            if _is_zero_poly(rem):
                return False
    return True


class FieldSpec:
    """A concrete model of GF(q): q = p^e plus the pinned modulus polynomial.

    Carries precomputed add/mul tables keyed by coefficient tuples.
    Immutable after construction; identity is (q, modulus).
    """

    __slots__ = ("q", "p", "e", "modulus", "zero", "one", "elements",
                 "_add", "_mul")

    def __init__(self, q):
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = self._least_irreducible(p, e)
        self.elements = tuple(
            tuple(reversed(t)) for t in product(range(p), repeat=e)
        )
        # product() varies the last coordinate fastest; reversing each tuple
        # makes c0 the fastest, so index k encodes sum(c_i * p^i).
        self.zero = self.elements[0]
        self.one = self.elements[1]
        self._build_tables()

    @staticmethod
    def _least_irreducible(p, e):
        if e == 1:
            return (0, 1)  # x itself; arithmetic below never divides by it
        for tail in product(range(p), repeat=e):
            cand = tail + (1,)
            if _irreducible(cand, p):
                return cand
        raise InvalidFieldError(f"no irreducible polynomial found for p={p}, e={e}")

    def _build_tables(self):
        p = self.p
        self._add = {}
        self._mul = {}
        for a in self.elements:
            for b in self.elements:
                self._add[(a, b)] = tuple((x + y) % p for x, y in zip(a, b))
                self._mul[(a, b)] = self._poly_mulmod(a, b)

    def _poly_mulmod(self, a, b):
        p, e = self.p, self.e
        raw = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] = (raw[i + j] + x * y) % p
        if e == 1:
            return (raw[0] % p,)
        _, rem = _poly_divmod(raw, list(self.modulus), p)
        rem = rem + [0] * (e - len(rem))
        return tuple(rem[:e])

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, e={self.e}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def build_field(q):
    """FieldSpec for GF(q); InvalidFieldError when q is not a prime power."""
    return FieldSpec(q)


def gf_add(a, b, f):
    return f._add[(a, b)]


def gf_mul(a, b, f):
    return f._mul[(a, b)]


def render_element(a, f):
    """Display form: the integer itself for prime fields, [c0,c1,...] otherwise."""
    if f.e == 1:
        return str(a[0])
    return "[" + ",".join(str(c) for c in a) + "]"


@dataclass(frozen=True)
class GFMatrix:
    """Row-major matrix of field elements."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]
