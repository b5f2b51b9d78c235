"""Exact rational matrices, the pseudoinverse oracle, and Penrose checkers.

A RatMatrix holds its scaled integer form: a denominator den > 0 and the
int rows of den * A, with den the lcm of the reduced denominators of the
entries, so equal matrices have equal fields. The commands call an
IncidenceMatrix's to_rat_matrix once and pass that one matrix to both the
oracle and the certificate. Every kernel runs on the int rows of a
RatMatrix: products go through one row-sparse integer product that visits
only nonzero entries, and elimination is fraction-free (Bareiss 1968), so
there is no rational arithmetic and no rational swell in between.
Fractions are built only by the readers (entries, row, at and to_rows)
and, once per distinct entry, by rat_matrix_mod_p.

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
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import ParameterError, ShapeError, SingularError
from .rationals import rat_mod_p


@dataclass(frozen=True, init=False)
class RatMatrix:
    """Immutable exact rational matrix in scaled integer form.

    nums holds the rows of den * A as tuples of ints, and den > 0 is the
    lcm of the reduced denominators of the entries that occur, so == and
    hash compare matrices. RatMatrix(rows, cols, entries) takes row-major
    rationals; from_ints takes int rows and a denominator.
    """

    rows: int
    cols: int
    den: int
    nums: tuple

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        den, flat = scaled_ints(entries)
        self._fill(rows, cols, den, [flat[i * cols : (i + 1) * cols] for i in range(rows)])

    @classmethod
    def from_ints(cls, rows, cols, nums, den=1):
        """The rows x cols matrix nums / den, for int rows nums and an int
        den != 0, brought to canonical form."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(nums))
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                nums = [tuple([v // g for v in row]) for row in nums]
        M = cls.__new__(cls)
        M._fill(rows, cols, den, nums)
        return M

    def _fill(self, rows, cols, den, nums):
        # every constructor ends here, with den already canonical
        if len(nums) != rows or any(map(cols.__ne__, map(len, nums))):
            raise ShapeError(f"int rows do not form a {rows}x{cols} matrix")
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(rows=rows, cols=cols, den=den, nums=tuple(map(tuple, nums)))

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        if any(len(row) != cols for row in rows_of_entries):
            raise ShapeError("ragged rows")
        return cls(rows, cols, tuple(chain.from_iterable(rows_of_entries)))

    @classmethod
    def identity(cls, n):
        return cls.from_ints(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls.from_ints(rows, cols, [(0,) * cols] * rows)

    @property
    def entries(self):
        """The entries as a row-major tuple of Fractions."""
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def at(self, i, j):
        return Fraction(self.nums[i][j], self.den)

    def row(self, i):
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums[i])

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        nums = list(zip(*self.nums)) if self.rows else [()] * self.cols
        return RatMatrix.from_ints(self.cols, self.rows, nums, self.den)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RatMatrix.from_ints(
            self.rows, other.cols, _matmul(self.nums, other.nums, other.cols),
            self.den * other.den,
        )

    def is_identity(self):
        n = self.rows
        return n == self.cols and self.den == 1 and all(
            row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self.nums)
        )


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
        """The dense RatMatrix: den 1 and the indicator rows of the supports."""
        rows = []
        for support in self.row_support:
            row = [0] * self.cols
            for j in support:
                row[j] = 1
            rows.append(row)
        return RatMatrix.from_ints(self.rows, self.cols, rows)


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
# integer core: matrices as int rows

def scaled_ints(values):
    """(d, ints): ints is the list d*values, with d > 0 the lcm of the
    denominators of the rationals in values."""
    d = lcm(*{x.denominator for x in values})
    if d == 1:
        return d, [x.numerator for x in values]
    return d, [x.numerator * (d // x.denominator) for x in values]


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
    aug = [[*row] + [0] * i + [1] + [0] * (k - i - 1) for i, row in enumerate(M)]
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


def _check_pair(A, X):
    if X.rows != A.cols or X.cols != A.rows:
        raise ShapeError(
            f"X must be {A.cols}x{A.rows} for A {A.rows}x{A.cols}, "
            f"got {X.rows}x{X.cols}"
        )


def _penrose(a, x, scale, reduce=None):
    """(report, ax, xa): the four Penrose conditions on the int rows a
    (m x n) and x (n x m), and the products a x and x a they read.

    A X A = A reads a x a = scale * a and X A X = X reads x a x = scale * x;
    reduce, when given, maps each product to the representatives that a
    and x are written in. Both triple products go through the smaller of
    a x (m x m) and x a (n x n).
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


# ---------------------------------------------------------------------------
# public operations on RatMatrix values

def pseudoinverse_oracle(A):
    """The Moore-Penrose inverse of the RatMatrix A, exactly.

    With A = Ai / a for int rows Ai, A+ = a * Ai+. Ai+ is the full-rank
    factorization of Ai, or its skeleton below full rank.
    """
    a, Ai = A.den, A.nums
    m, n = A.rows, A.cols
    try:
        rows, den = _full_rank_inverse(Ai, n)
    except SingularError:
        # rank < min(m, n): the skeleton F = A[:, J], R = A[I, :]
        _, order, pivots, _ = _gauss_jordan(Ai, n)
        k = len(pivots)
        if k == 0:
            return RatMatrix.zeros(n, m)
        Rt = _transpose([Ai[i] for i in order[:k]], n)
        Ft = [[row[j] for row in Ai] for j in pivots]
        adj, den = _inverse(_matmul(Ft, _matmul(Ai, Rt, k), k))
        rows = _matmul(Rt, _matmul(adj, Ft, m), m)
    if a != 1:
        rows = [[a * v for v in row] for row in rows]
    return RatMatrix.from_ints(n, m, rows, den)


def penrose_products(A, X):
    """(report, A X, X A): the four Penrose conditions for (A, X) with
    exact equality, and the two products they read.

    With A = Ai / a and X = Xi / x for int rows Ai and Xi, A X A = A reads
    Ai Xi Ai = a x Ai and X A X = X reads Xi Ai Xi = a x Xi; symmetry is
    unaffected.
    """
    _check_pair(A, X)
    scale = A.den * X.den
    report, ax, xa = _penrose(A.nums, X.nums, scale)
    return (
        report,
        RatMatrix.from_ints(A.rows, A.rows, ax, scale),
        RatMatrix.from_ints(A.cols, A.cols, xa, scale),
    )


def penrose_check(A, X):
    """Evaluate the four Penrose conditions for (A, X) with exact equality:
    the report of penrose_products, without building the products."""
    _check_pair(A, X)
    return _penrose(A.nums, X.nums, A.den * X.den)[0]


def rat_matrix_mod_p(A, p):
    """Entrywise reduction to GF(p); NotReducibleError if p divides a denominator."""
    # one residue per distinct entry, met in row-major order, so an error
    # names the first entry that fails
    residue = {
        v: rat_mod_p(Fraction(v, A.den), p)
        for v in dict.fromkeys(chain.from_iterable(A.nums))
    }
    return RatMatrix.from_ints(
        A.rows, A.cols, [list(map(residue.__getitem__, row)) for row in A.nums]
    )


def _residue_rows(A, p):
    if A.den != 1:
        raise ParameterError("mod-p Penrose check needs integer entries; reduce first")
    return [[v % p for v in row] for row in A.nums]


def penrose_check_mod_p(A, X, p):
    """The four Penrose conditions over GF(p), plain transpose for 3 and 4.

    A and X must carry integer entries (already reduced, e.g. through
    rat_matrix_mod_p).
    """
    _check_pair(A, X)
    return _penrose(
        _residue_rows(A, p), _residue_rows(X, p), 1,
        lambda rows: [[v % p for v in row] for row in rows],
    )[0]


def first_difference(A, B):
    """(i, j) of the first entry where A and B differ, or None if equal."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ShapeError("shape mismatch")
    if A == B:
        # canonical forms: equal matrices have equal fields
        return None
    da, db = A.den, B.den
    for i, (arow, brow) in enumerate(zip(A.nums, B.nums)):
        left = [v * db for v in arow]
        right = [v * da for v in brow]
        if left != right:
            return i, next(j for j, (x, y) in enumerate(zip(left, right)) if x != y)
    return None
