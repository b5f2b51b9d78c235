"""Reference implementations the tests check mpinc against.

None of these ship in mpinc: no program of the package needs them. Each
is written from its definition and shares no elimination kernel with mpinc.
pytest does not collect this module; tests import it by name.
"""

from fractions import Fraction

from mpinc.combinat import binomial
from mpinc.errors import InvalidFieldError, ParameterError, ShapeError
from mpinc.gf import GFMatrix
from mpinc.linalg import RatMatrix


# ---------------------------------------------------------------------------
# GF(q): elements, matrices and row reduction, read off the field's tables

def element(f, value):
    """Coerce an int (for prime fields) or coefficient sequence to an element of f."""
    if isinstance(value, int):
        if f.e == 1:
            return (value % f.p,)
        raise InvalidFieldError(f"GF({f.q}) elements need {f.e} coefficients, got int")
    t = tuple(int(c) % f.p for c in value)
    if len(t) != f.e:
        raise InvalidFieldError(f"GF({f.q}) elements need {f.e} coefficients, got {len(t)}")
    return t


def from_rows(rows, f):
    """The GFMatrix with the given rows of ints or coefficient sequences."""
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ShapeError("ragged rows")
    return GFMatrix(len(rows), cols, tuple(element(f, x) for row in rows for x in row))


def at(A, i, j):
    return A.entries[i * A.cols + j]


def to_rows(A):
    return [list(A.row(i)) for i in range(A.rows)]


def gf_neg(a, f):
    """The b with a + b = 0, found in the addition table."""
    return next(b for b in f.elements if f._add[(a, b)] == f.zero)


def gf_inv(a, f):
    """The b with a b = 1, found in the multiplication table."""
    if a == f.zero:
        raise ZeroDivisionError(f"0 has no inverse in GF({f.q})")
    return next(b for b in f.elements if f._mul[(a, b)] == f.one)


def rref_gf(A, f):
    """Reduced row echelon form over GF(q): (rref, rank, pivot_columns).

    Zero rows are trimmed, so the rref has exactly rank rows.
    """
    rows = to_rows(A)
    add, mul = f._add, f._mul
    pivots = []
    for col in range(A.cols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col] != f.zero), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        s = gf_inv(rows[rank][col], f)
        prow = rows[rank] = [mul[(s, x)] for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col] != f.zero:
                nf = gf_neg(row[col], f)
                rows[i] = [add[(x, mul[(nf, y)])] for x, y in zip(row, prow)]
        pivots.append(col)
    rank = len(pivots)
    R = GFMatrix(rank, A.cols, tuple(x for row in rows[:rank] for x in row))
    return R, rank, tuple(pivots)


# ---------------------------------------------------------------------------
# subsets and rational matrices

def subset_rank(S, n, r):
    """Colexicographic rank of an r-subset of [1, n].

    The rank of a strictly increasing 1-based subset S is sum_j C(S_j - 1, j)
    over positions j = 1..r.
    """
    S = tuple(S)
    if len(S) != r:
        raise ParameterError(f"expected {r} elements, got {len(S)}")
    prev = 0
    for x in S:
        if not (isinstance(x, int) and prev < x <= n):
            raise ParameterError(f"subset {S} is not strictly increasing within [1, {n}]")
        prev = x
    return sum(binomial(x - 1, j) for j, x in enumerate(S, start=1))


def rref_rational(A):
    """Reduced row echelon form over the rationals, by Fraction elimination.

    Returns (rref, rank, pivot_columns); zero rows are trimmed so the rref
    has exactly rank rows.
    """
    rows = [list(map(Fraction, row)) for row in A.to_rows()]
    pivots = []
    for col in range(A.cols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pv = rows[rank][col]
        prow = rows[rank] = [x / pv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(col)
    rank = len(pivots)
    R = RatMatrix(rank, A.cols, tuple(x for row in rows[:rank] for x in row))
    return R, rank, tuple(pivots)
