"""Exact rational matrices, the pseudoinverse oracle, and Penrose checkers.

Every kernel runs on Python ints. A RatMatrix is scaled once by the lcm of
its denominators; products then go through one row-sparse integer product
that skips zero entries, and elimination is fraction-free (Bareiss 1968),
so there is no rational arithmetic and no rational swell in between.
Fractions are built only for results.

The oracle is the skeleton form of the full-rank factorization. With I the
pivot rows and J the pivot columns of A, F = A[:, J] and R = A[I, :],

    A+ = R^T (F^T A R^T)^-1 F^T.

It reads only A, never a closed-form inverse, and works at any rank.
Nothing here touches floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul

from .errors import ParameterError, ShapeError, SingularError
from .rationals import rat_mod_p

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x):
    if type(x) is Fraction:
        return x
    return Fraction(x.numerator, x.denominator)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable row-major matrix of Fraction entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = []
        for row in rows_of_entries:
            if len(row) != cols:
                raise ShapeError("ragged rows")
            flat.extend(_as_fraction(x) for x in row)
        return cls(rows, cols, tuple(flat))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        e = self.entries
        c = self.cols
        return RatMatrix(
            c, self.rows,
            tuple(e[i * c + j] for j in range(c) for i in range(self.rows)),
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, A = _int_rows(self)
        b, B = _int_rows(other)
        return _rat_matrix(_matmul(A, B, other.cols), self.rows, other.cols, 1, a * b)

    def is_identity(self):
        n = self.rows
        if n != self.cols:
            return False
        e = self.entries
        return all(e[i * (n + 1)] == 1 for i in range(n)) and sum(map(bool, e)) == n


@dataclass(frozen=True)
class IncidenceMatrix:
    """Sparse 0/1 matrix plus the labels indexing its rows and columns.

    row_support[i] is the strictly increasing tuple of column indices with
    a 1 in row i. Labels are whatever the construction indexed by: subsets,
    subspace bases, or blocks.
    """

    rows: int
    cols: int
    row_support: tuple
    row_labels: tuple = None
    col_labels: tuple = None

    def at(self, i, j):
        return 1 if j in self.row_support[i] else 0

    def nnz(self):
        return sum(len(s) for s in self.row_support)

    def row_sums(self):
        return [len(s) for s in self.row_support]

    def col_sums(self):
        sums = [0] * self.cols
        for support in self.row_support:
            for j in support:
                sums[j] += 1
        return sums

    def to_rat_matrix(self):
        flat = [_ZERO] * (self.rows * self.cols)
        for i, support in enumerate(self.row_support):
            base = i * self.cols
            for j in support:
                flat[base + j] = _ONE
        return RatMatrix(self.rows, self.cols, tuple(flat))


@dataclass(frozen=True)
class PenroseReport:
    """Outcome of the four defining conditions for X = A+."""

    cond1: bool  # A X A = A
    cond2: bool  # X A X = X
    cond3: bool  # (A X)^T = A X
    cond4: bool  # (X A)^T = X A

    @property
    def all_ok(self):
        return self.cond1 and self.cond2 and self.cond3 and self.cond4


# ---------------------------------------------------------------------------
# integer core: matrices as lists of int rows

def _int_rows(M):
    """(d, rows): d is the lcm of M's denominators, rows the int rows of d*M."""
    e = M.entries
    d = lcm(*{x.denominator for x in e})
    if d == 1:
        flat = [x.numerator for x in e]
    else:
        flat = [x.numerator * (d // x.denominator) for x in e]
    c = M.cols
    return d, [flat[i * c : (i + 1) * c] for i in range(M.rows)]


def _rat_matrix(rows, nrows, ncols, num, den):
    """The RatMatrix (num/den) * rows, building one Fraction per distinct entry."""
    flat = [v for row in rows for v in row]
    frac = {v: Fraction(num * v, den) for v in set(flat)}
    return RatMatrix(nrows, ncols, tuple(map(frac.__getitem__, flat)))


def _transpose(rows, ncols):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def _nnz(rows):
    return sum(len(row) - row.count(0) for row in rows)


def _row_sparse_matmul(a, b, ncols):
    # row i of a @ b is the sum of the rows of b picked by row i's nonzeros
    out = []
    for arow in a:
        acc = [0] * ncols
        for k, x in enumerate(arow):
            if x == 1:
                acc = list(map(add, acc, b[k]))
            elif x:
                acc = list(map(add, acc, map(mul, repeat(x), b[k])))
        out.append(acc)
    return out


def _matmul(a, b, ncols):
    """a @ b for int rows; b has ncols columns.

    The product scans the nonzeros of one factor and adds whole rows of the
    other, so its cost is the scanned factor's nnz times the other's width.
    It scans a, or b through (b^T a^T)^T, whichever costs less: with a 0/1
    incidence matrix on either side, the dense factor is never scanned.
    """
    inner = len(b)
    if _nnz(b) * len(a) < _nnz(a) * ncols:
        bt_at = _row_sparse_matmul(_transpose(b, ncols), _transpose(a, inner), len(a))
        return _transpose(bt_at, len(a))
    return _row_sparse_matmul(a, b, ncols)


def _is_symmetric(rows):
    return _transpose(rows, len(rows)) == rows


def _gauss_jordan(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of int rows.

    Pivots are sought in the first `width` columns, in order, and each row
    operation runs across the whole row. Returns (reduced, order, pivots, d):
    reduced[t] is zero in every pivot column but pivots[t], where it holds d,
    the last pivot; it descends from input row order[t]. Rows past the rank
    are zero in the first `width` columns. Every division is exact, because
    each entry is a minor of the input, so the entries never outgrow those
    minors.
    """
    rows = list(rows)
    m = len(rows)
    order = list(range(m))
    pivots = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        sel = next((i for i in range(rank, m) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        order[rank], order[sel] = order[sel], order[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(m):
            if i == rank:
                continue
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        pivots.append(col)
        prev = p
        if len(pivots) == m:
            break
    return rows, order, pivots, prev


def _inverse(M):
    """(adj, d) with M^-1 = adj / d, for a nonsingular square int matrix M."""
    k = len(M)
    aug = [row + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(M)]
    reduced, _, pivots, d = _gauss_jordan(aug, k)
    if len(pivots) < k:
        raise SingularError("matrix is singular")
    return [row[k:] for row in reduced], d


def _check_pair(A, X):
    if X.rows != A.cols or X.cols != A.rows:
        raise ShapeError(
            f"X must be {A.cols}x{A.rows} for A {A.rows}x{A.cols}, "
            f"got {X.rows}x{X.cols}"
        )


def _penrose(a, x, scale, reduce):
    """The four Penrose conditions on the int rows a (m x n) and x (n x m).

    A X A = A reads reduce(a x a) = scale * a and X A X = X reads
    reduce(x a x) = scale * x; reduce maps each product to the
    representatives that a and x are written in.
    """
    m, n = len(a), len(x)
    ax = reduce(_matmul(a, x, m))
    return PenroseReport(
        cond1=reduce(_matmul(ax, a, n)) == [[scale * v for v in row] for row in a],
        cond2=reduce(_matmul(x, ax, m)) == [[scale * v for v in row] for row in x],
        cond3=_is_symmetric(ax),
        cond4=_is_symmetric(reduce(_matmul(x, a, n))),
    )


# ---------------------------------------------------------------------------
# public operations

def pseudoinverse_oracle(A):
    """The Moore-Penrose inverse of A via its skeleton, exactly.

    With a*A = Ai integral and Fi, Ri the pivot columns and rows of Ai,
    A+ = a * Ri^T (Fi^T Ai Ri^T)^-1 Fi^T; the k x k inverse is adj/det.
    """
    m, n = A.rows, A.cols
    a, Ai = _int_rows(A)
    _, order, pivots, _ = _gauss_jordan(Ai, n)
    k = len(pivots)
    if k == 0:
        return RatMatrix.zeros(n, m)
    Rt = _transpose([Ai[i] for i in order[:k]], n)
    Ft = [[row[j] for row in Ai] for j in pivots]
    adj, det = _inverse(_matmul(Ft, _matmul(Ai, Rt, k), k))
    X = _matmul(Rt, _matmul(adj, Ft, m), m)
    return _rat_matrix(X, n, m, a, det)


def penrose_check(A, X):
    """Evaluate the four Penrose conditions for (A, X) with exact equality.

    With a*A = Ai and x*X = Xi integral, A X A = A reads Ai Xi Ai = a x Ai
    and X A X = X reads Xi (Ai Xi) = a x Xi; symmetry is unaffected.
    """
    _check_pair(A, X)
    a, Ai = _int_rows(A)
    x, Xi = _int_rows(X)
    return _penrose(Ai, Xi, a * x, lambda rows: rows)


def rat_matrix_mod_p(A, p):
    """Entrywise reduction to GF(p); NotReducibleError if p divides a denominator."""
    return RatMatrix(
        A.rows, A.cols,
        tuple(Fraction(rat_mod_p(x, p)) for x in A.entries),
    )


def _residue_rows(A, p):
    d, rows = _int_rows(A)
    if d != 1:
        raise ParameterError("mod-p Penrose check needs integer entries; reduce first")
    return [[v % p for v in row] for row in rows]


def penrose_check_mod_p(A, X, p):
    """The four Penrose conditions over GF(p), plain transpose for 3 and 4.

    A and X must carry integer entries (already reduced, e.g. through
    rat_matrix_mod_p).
    """
    _check_pair(A, X)
    return _penrose(
        _residue_rows(A, p), _residue_rows(X, p), 1,
        lambda rows: [[v % p for v in row] for row in rows],
    )


def first_difference(A, B):
    """(i, j) of the first entry where A and B differ, or None if equal."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ShapeError("shape mismatch")
    for index, (x, y) in enumerate(zip(A.entries, B.entries)):
        if x != y:
            return divmod(index, A.cols)
    return None
