"""Exact rational matrices, the pseudoinverse oracle, and Penrose checkers.

Every kernel runs on Python ints. A RatMatrix is scaled once by the lcm of
its denominators, and an IncidenceMatrix is read straight from its row
supports; products then go through one row-sparse integer product that
visits only nonzero entries, and elimination is fraction-free (Bareiss
1968), so there is no rational arithmetic and no rational swell in between.
Fractions are built only for results. The int cores (int_rows, oracle_rows,
penrose_products, first_difference_rows) are what the CLI and the survey
call; the RatMatrix functions are thin wrappers over them.

The oracle is the full-rank factorization formula (Ben-Israel and Greville
2003)

    A+ = R^T (F^T A R^T)^-1 F^T,

where the columns of F are a basis of the column space of A and the rows
of R a basis of its row space. F = I when A has full row rank and R = I
when it has full column rank, so a square nonsingular A is inverted once
(det A, not the skeleton's det(A)^3), a wide A goes through the m x m Gram
A A^T and a tall one through the n x n Gram A^T A. Below full rank it is
the skeleton: with I the pivot rows and J the pivot columns of A,
F = A[:, J] and R = A[I, :]. It reads only A, never a closed-form inverse.

The Penrose certificate forms both A X and X A and reaches A X A and X A X
through the smaller of the two. Nothing here touches floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
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
        a, A = int_rows(self)
        b, B = int_rows(other)
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

def int_rows(M):
    """(d, rows): rows are the int rows of d*M, with d > 0 the lcm of M's
    denominators. An IncidenceMatrix is read from its supports, with d = 1.
    """
    if isinstance(M, IncidenceMatrix):
        rows = []
        for support in M.row_support:
            row = [0] * M.cols
            for j in support:
                row[j] = 1
            rows.append(row)
        return 1, rows
    d, flat = scaled_ints(M.entries)
    c = M.cols
    return d, [flat[i * c : (i + 1) * c] for i in range(M.rows)]


def scaled_ints(values):
    """(d, ints): ints is the list d*values, with d > 0 the lcm of the
    denominators of the rationals in values."""
    d = lcm(*{x.denominator for x in values})
    if d == 1:
        return d, [x.numerator for x in values]
    return d, [x.numerator * (d // x.denominator) for x in values]


def _rat_matrix(rows, nrows, ncols, num, den):
    """The RatMatrix (num/den) * rows, building one Fraction per distinct entry."""
    flat = [v for row in rows for v in row]
    frac = {v: Fraction(num * v, den) for v in set(flat)}
    return RatMatrix(nrows, ncols, tuple(map(frac.__getitem__, flat)))


def identity_rows(k, scale=1):
    """The int rows of scale times the k x k identity."""
    return [[scale if i == j else 0 for j in range(k)] for i in range(k)]


def _transpose(rows, ncols):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def _nnz(rows):
    return sum(len(row) - row.count(0) for row in rows)


def _row_sparse_matmul(a, b, ncols):
    # row i of a @ b is the sum of the rows of b picked by row i's nonzeros
    out = []
    for arow in a:
        acc = [0] * ncols
        for x, brow in compress(zip(arow, b), arow):
            if x == 1:
                acc = list(map(add, acc, brow))
            else:
                acc = list(map(add, acc, map(mul, repeat(x), brow)))
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
    """(adj, d) with M^-1 = adj / d, for a nonsingular square int matrix M.

    SingularError when M is singular.
    """
    k = len(M)
    aug = [row + unit for row, unit in zip(M, identity_rows(k))]
    reduced, _, pivots, d = _gauss_jordan(aug, k)
    if len(pivots) < k:
        raise SingularError("matrix is singular")
    return [row[k:] for row in reduced], d


def _full_rank_inverse(a, n):
    """(rows, d) with A+ = rows / d when A (int rows a, m x n) has full row
    or full column rank, else SingularError.

    Square A is inverted; a wide A gives A^T (A A^T)^-1 and a tall one
    (A^T A)^-1 A^T, whose Gram is nonsingular exactly at full rank.
    """
    m = len(a)
    if m == n:
        return _inverse(a)
    at = _transpose(a, n)
    if m < n:
        adj, d = _inverse(_matmul(a, at, m))
        return _matmul(at, adj, m), d
    adj, d = _inverse(_matmul(at, a, n))
    return _matmul(adj, at, m), d


def oracle_rows(a, n):
    """(rows, den) with A+ = rows / den and den > 0, for the int rows a of
    an m x n matrix A: the full-rank factorization, which reads only A.
    """
    m = len(a)
    try:
        rows, den = _full_rank_inverse(a, n)
    except SingularError:
        # rank < min(m, n): the skeleton F = A[:, J], R = A[I, :]
        _, order, pivots, _ = _gauss_jordan(a, n)
        k = len(pivots)
        if k == 0:
            return [[0] * m for _ in range(n)], 1
        Rt = _transpose([a[i] for i in order[:k]], n)
        Ft = [[row[j] for row in a] for j in pivots]
        adj, den = _inverse(_matmul(Ft, _matmul(a, Rt, k), k))
        rows = _matmul(Rt, _matmul(adj, Ft, m), m)
    if den < 0:
        return [[-v for v in row] for row in rows], -den
    return rows, den


def _check_pair(A, X):
    if X.rows != A.cols or X.cols != A.rows:
        raise ShapeError(
            f"X must be {A.cols}x{A.rows} for A {A.rows}x{A.cols}, "
            f"got {X.rows}x{X.cols}"
        )


def penrose_products(a, x, scale, reduce=None):
    """(report, ax, xa): the four Penrose conditions on the int rows a
    (m x n) and x (n x m), and the products A X and X A they read.

    A X A = A reads a x a = scale * a and X A X = X reads x a x = scale * x;
    reduce, when given, maps each product to the representatives that a
    and x are written in. Both triple products go through the smaller of
    A X (m x m) and X A (n x n).
    """
    m, n = len(a), len(x)
    ax, xa = _matmul(a, x, m), _matmul(x, a, n)
    if reduce is not None:
        ax, xa = reduce(ax), reduce(xa)
    if n < m:
        axa, xax = _matmul(a, xa, n), _matmul(xa, x, m)
    else:
        axa, xax = _matmul(ax, a, n), _matmul(x, ax, m)
    if reduce is not None:
        axa, xax = reduce(axa), reduce(xax)
    report = PenroseReport(
        cond1=axa == [[scale * v for v in row] for row in a],
        cond2=xax == [[scale * v for v in row] for row in x],
        cond3=_is_symmetric(ax),
        cond4=_is_symmetric(xa),
    )
    return report, ax, xa


def first_difference_rows(a, da, b, db):
    """(i, j) of the first entry where a / da and b / db differ, or None;
    a and b are int rows of one shape."""
    for i, (arow, brow) in enumerate(zip(a, b)):
        left = [v * db for v in arow]
        right = [v * da for v in brow]
        if left != right:
            return i, next(j for j, (x, y) in enumerate(zip(left, right)) if x != y)
    return None


# ---------------------------------------------------------------------------
# public operations on RatMatrix (and IncidenceMatrix) values

def pseudoinverse_oracle(A):
    """The Moore-Penrose inverse of A (a RatMatrix or IncidenceMatrix), exactly.

    With a*A = Ai integral, A+ = a * Ai+, and oracle_rows gives Ai+.
    """
    a, Ai = int_rows(A)
    rows, den = oracle_rows(Ai, A.cols)
    return _rat_matrix(rows, A.cols, A.rows, a, den)


def penrose_check(A, X):
    """Evaluate the four Penrose conditions for (A, X) with exact equality.

    With a*A = Ai and x*X = Xi integral, A X A = A reads Ai Xi Ai = a x Ai
    and X A X = X reads Xi Ai Xi = a x Xi; symmetry is unaffected.
    """
    _check_pair(A, X)
    a, Ai = int_rows(A)
    x, Xi = int_rows(X)
    return penrose_products(Ai, Xi, a * x)[0]


def rat_matrix_mod_p(A, p):
    """Entrywise reduction to GF(p); NotReducibleError if p divides a denominator."""
    return RatMatrix(
        A.rows, A.cols,
        tuple(Fraction(rat_mod_p(x, p)) for x in A.entries),
    )


def _residue_rows(A, p):
    d, rows = int_rows(A)
    if d != 1:
        raise ParameterError("mod-p Penrose check needs integer entries; reduce first")
    return [[v % p for v in row] for row in rows]


def penrose_check_mod_p(A, X, p):
    """The four Penrose conditions over GF(p), plain transpose for 3 and 4.

    A and X must carry integer entries (already reduced, e.g. through
    rat_matrix_mod_p).
    """
    _check_pair(A, X)
    return penrose_products(
        _residue_rows(A, p), _residue_rows(X, p), 1,
        lambda rows: [[v % p for v in row] for row in rows],
    )[0]


def first_difference(A, B):
    """(i, j) of the first entry where A and B differ, or None if equal."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ShapeError("shape mismatch")
    da, a = int_rows(A)
    db, b = int_rows(B)
    return first_difference_rows(a, da, b, db)
