"""GF(q) arithmetic for prime powers q, and row reduction over GF(q).

Elements are little-endian coefficient tuples of length e over GF(p),
q = p^e. The field model is pinned: the modulus is the lexicographically
least monic irreducible polynomial of degree e over GF(p), coefficient
sequences compared low-degree-first. Products and inverses are table-driven;
the whole package stays at desk scale (q <= 9 for enumeration work).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import InvalidFieldError, NoInverseError, ShapeError


def factor_prime_power(q):
    """(p, e) with q = p^e; InvalidFieldError when q is not a prime power."""
    if q < 2:
        raise InvalidFieldError(f"{q} is not a prime power")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise InvalidFieldError(f"{q} is not a prime power")
    return p, e


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

    Carries precomputed add/mul/inv tables keyed by coefficient tuples.
    Immutable after construction; identity is (q, modulus).
    """

    __slots__ = ("q", "p", "e", "modulus", "zero", "one", "elements",
                 "_add", "_mul", "_neg", "_inv")

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
        p, e = self.p, self.e
        self._add = {}
        self._neg = {}
        self._mul = {}
        self._inv = {}
        for a in self.elements:
            self._neg[a] = tuple((-x) % p for x in a)
            for b in self.elements:
                self._add[(a, b)] = tuple((x + y) % p for x, y in zip(a, b))
                self._mul[(a, b)] = self._poly_mulmod(a, b)
        for a in self.elements:
            for b in self.elements:
                if self._mul[(a, b)] == self.one:
                    self._inv[a] = b
                    break

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

    def element(self, value):
        """Coerce an int (for prime fields) or coefficient sequence to an element."""
        if isinstance(value, int):
            if self.e == 1:
                return (value % self.p,)
            raise InvalidFieldError(
                f"GF({self.q}) elements need {self.e} coefficients, got int"
            )
        t = tuple(int(c) % self.p for c in value)
        if len(t) != self.e:
            raise InvalidFieldError(
                f"GF({self.q}) elements need {self.e} coefficients, got {len(t)}"
            )
        return t

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


def gf_neg(a, f):
    return f._neg[a]


def gf_mul(a, b, f):
    return f._mul[(a, b)]


def gf_inv(a, f):
    if a == f.zero:
        raise NoInverseError(f"0 has no inverse in GF({f.q})")
    return f._inv[a]


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

    @classmethod
    def from_rows(cls, rows_of_entries, f):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = []
        for row in rows_of_entries:
            if len(row) != cols:
                raise ShapeError("ragged rows")
            flat.extend(f.element(x) for x in row)
        return cls(rows, cols, tuple(flat))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]


def rref_gf(A, f):
    """Reduced row echelon form over GF(q).

    Returns (rref, rank, pivot_columns) with zero rows trimmed, so the
    result has exactly rank rows. The RREF is the unique canonical form.
    """
    rows = [list(A.row(i)) for i in range(A.rows)]
    zero, one = f.zero, f.one
    mul, add, neg, inv = f._mul, f._add, f._neg, f._inv
    pivots = []
    rank = 0
    for col in range(A.cols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][col] != zero:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pv = rows[rank][col]
        if pv != one:
            s = inv[pv]
            rows[rank] = [mul[(s, x)] for x in rows[rank]]
        prow = rows[rank]
        for i in range(len(rows)):
            if i == rank:
                continue
            factor = rows[i][col]
            if factor == zero:
                continue
            nf = neg[factor]
            rows[i] = [add[(x, mul[(nf, y)])] for x, y in zip(rows[i], prow)]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    flat = tuple(x for row in rows[:rank] for x in row)
    return GFMatrix(rank, A.cols, flat), rank, tuple(pivots)
