"""Exact rational matrices, the pseudoinverse oracle, and Penrose checkers.

A RatMatrix holds its scaled integer form: a denominator den > 0 and the
int rows of den * A, with den the lcm of the reduced denominators of the
entries, so equal matrices have equal fields. The commands call an
IncidenceMatrix's to_rat_matrix once and pass that one matrix to both the
oracle and the certificate. Every kernel runs on the int rows of a
RatMatrix. Products go through one row-sparse integer product that visits
only nonzero entries: it starts each output row from its first term, leaves
a row with no nonzero a zero row, and scans whichever factor costs less,
counting the entries that the transposes of the other route touch.
Elimination is one integer kernel in exchange form, on the k columns of the
matrix rather than the 2k of [M | I], that keeps each row primitive: no
rational arithmetic and no determinant swell.
Fractions are built only by the readers (entries, row, at and to_rows)
and, once per distinct entry, by rat_matrix_mod_p.

The oracle is the full-rank factorization formula (Ben-Israel and Greville
2003)

    A+ = R^T (F^T A R^T)^-1 F^T,

where the columns of F are a basis of the column space of A and the rows
of R a basis of its row space. F = I when A has full row rank and R = I
when it has full column rank, so a square nonsingular A is inverted with
no product, a wide A through the m x m Gram A A^T and a tall one through
the n x n Gram A^T A, each cheaper than the skeleton. Below full rank it is
the skeleton: with I the pivot rows and J the pivot columns of A,
F = A[:, J] and R = A[I, :]. It reads only A, never a closed-form inverse.

The Penrose certificate forms the smaller of A X and X A first. When it
is an identity, that one product proves A X A = A, X A X = X and its own
symmetry (Penrose 1955): a square A needs nothing more, and a wide or tall
one reads the larger product's symmetry from that product or, when that
costs more, from the small Gram side X^T X. Otherwise it forms the other
product too and reaches A X A and X A X through the smaller. Nothing
here touches floating point.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import ParameterError, ShapeError, SingularError
from .rationals import _check_prime, rat_mod_p


class RatMatrix(namedtuple("RatMatrix", "rows cols den nums")):
    """Immutable exact rational matrix in scaled integer form.

    nums holds the rows of den * A as tuples of ints, and den > 0 is the
    lcm of the reduced denominators of the entries that occur, so == and
    hash compare matrices. RatMatrix(rows, cols, den, nums) takes int rows
    nums and an int den != 0 and brings them to that form; from_rows takes
    rows of rationals.
    """

    __slots__ = ()

    def __new__(cls, rows, cols, den, nums):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if not den:
            raise ParameterError(f"denominator must be nonzero, got den={den}")
        if den != 1:
            g = gcd(den, *chain.from_iterable(nums))
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                nums = [tuple([v // g for v in row]) for row in nums]
        if len(nums) != rows or any(map(cols.__ne__, map(len, nums))):
            raise ShapeError(f"int rows do not form a {rows}x{cols} matrix")
        return tuple.__new__(cls, (rows, cols, den, tuple(map(tuple, nums))))

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        if any(len(row) != cols for row in rows_of_entries):
            raise ShapeError("ragged rows")
        den, flat = scaled_ints(tuple(chain.from_iterable(rows_of_entries)))
        return cls(rows, cols, den, [flat[i * cols : (i + 1) * cols] for i in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, 1, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, 1, [(0,) * cols] * rows)

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
        return RatMatrix(self.cols, self.rows, self.den, nums)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RatMatrix(
            self.rows, other.cols, self.den * other.den,
            _matmul(self.nums, other.nums, other.cols),
        )

    def is_identity(self):
        return self.rows == self.cols and _is_scaled_identity(self.nums, self.den)


class IncidenceMatrix(namedtuple(
    "IncidenceMatrix", "rows cols row_support row_labels col_labels", defaults=(None, None)
)):
    """Sparse 0/1 matrix plus the labels indexing its rows and columns.

    row_support[i] is the strictly increasing tuple of column indices with
    a 1 in row i. Labels are whatever the construction indexed by: subsets,
    subspace bases, or blocks.
    """

    __slots__ = ()

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
        return RatMatrix(self.rows, self.cols, 1, rows)


class PenroseReport(namedtuple("PenroseReport", "cond1 cond2 cond3 cond4")):
    """Outcome of the four defining conditions for X = A+: cond1 is
    A X A = A, cond2 X A X = X, cond3 (A X)^T = A X, cond4 (X A)^T = X A."""

    __slots__ = ()

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
    """a @ b for int rows; b has ncols columns.

    Row i of the product is the sum of the rows of b picked by row i's
    nonzeros. It starts from the first of them, a fresh copy of that row of
    b or its multiple, so a row with one nonzero costs one pass over its
    row of b, and a row with no nonzero is a zero row, with no sum formed.
    Every output row is a new list, never one of b's rows.
    """
    out = []
    for arow in a:
        acc = None
        # the first term is taken in the loop: holding the pair zip yields
        # would stop zip from reusing its tuple for the rest of the row
        for x, brow in compress(zip(arow, b), arow):
            if acc is None:
                acc = list(brow) if x == 1 else [x * v for v in brow]
            elif x == 1:
                acc = list(map(add, acc, brow))
            else:
                acc = list(map(add, acc, map(mul, repeat(x), brow)))
        out.append([0] * ncols if acc is None else acc)
    return out


def _matmul(a, b, ncols, nnz_a=None, nnz_b=None):
    """a @ b for int rows; b has ncols columns.

    The product scans the nonzeros of one factor and adds whole rows of the
    other, so its cost is the scanned factor's nnz times the other's width.
    It scans a, or b through (b^T a^T)^T, whichever costs less; the
    transposed route also counts the entries its three transposes touch,
    len(a) inner + inner ncols + len(a) ncols. So with a 0/1 incidence
    matrix on either side the dense factor is never scanned, and a factor
    as sparse as the identity is scanned where it stands. nnz_a and nnz_b,
    when given, are the nonzero counts of a and b, passed by callers that
    multiply by one factor more than once.
    """
    inner = len(b)
    if nnz_a is None:
        nnz_a = _nnz(a)
    if nnz_b is None:
        nnz_b = _nnz(b)
    rows = len(a)
    if nnz_b * rows + rows * inner + inner * ncols + rows * ncols < nnz_a * ncols:
        bt_at = _row_sparse_matmul(_transpose(b, ncols), _transpose(a, inner), rows)
        return _transpose(bt_at, rows)
    return _row_sparse_matmul(a, b, ncols)


def _is_symmetric(rows):
    return _transpose(rows, len(rows)) == rows


def _is_scaled_identity(rows, scale):
    """Whether the square int rows equal scale * I."""
    n = len(rows)
    return all(row[i] == scale and row.count(0) == n - 1 for i, row in enumerate(rows))


def _exchange(rows, width):
    """Gauss-Jordan elimination of the int rows of M in exchange form, on
    primitive rows. Returns (rows, pivots, scales).

    Read the rows as y = M x. Pivot (sel, col) exchanges y_sel and x_col:
    column col, taken in order up to width, is pivoted on the first unused
    row that is nonzero in it, and a column with no such row is skipped;
    pivots lists the pairs (sel, col) in pivot order. Row t reads s_t lhs_t
    = row . (the variables in the columns), with s_t = scales[t] and
    gcd(s_t, *row) = 1; lhs_t is x_col once t is pivoted on col, else y_t.
    With a the pivot and s its row's scale, every other row with b =
    row[col] != 0 becomes a row - b prow, col entry b s and scale a s_t,
    divided by their gcd; the pivot row becomes -prow, col entry s and
    scale a. A row that is zero in the pivot column is left alone. Each row
    is a nonzero multiple of its Bareiss (1968) row, so the pivots are the
    same, but it is the least int form of its rational row, not a minor.
    """
    rows = list(rows)
    m = len(rows)
    scales = [1] * m
    unused = [True] * m
    pivots = []
    for col in range(width):
        sel = next((i for i in range(m) if unused[i] and rows[i][col]), None)
        if sel is None:
            continue
        prow, s = rows[sel], scales[sel]
        a = prow[col]
        for i, row in enumerate(rows):
            b = row[col]
            if b and i != sel:
                # a / g and b / g give the same primitive row from smaller ints
                g = gcd(a, b)
                ag, bg = a // g, b // g
                new = [ag * x - bg * y for x, y in zip(row, prow)]
                new[col] = bg * s
                scale = ag * scales[i]
                g = gcd(scale, *new)
                if g != 1:
                    new = [v // g for v in new]
                    scale //= g
                rows[i], scales[i] = new, scale
        prow = rows[sel] = [-x for x in prow]
        prow[col] = s
        scales[sel] = a
        unused[sel] = False
        pivots.append((sel, col))
        if len(pivots) == m:
            break
    return rows, pivots, scales


def _inverse(M):
    """(adj, d) with M^-1 = adj / d, for a nonsingular square int matrix M.

    After _exchange has pivoted every column, row i pivoted on c reads
    scales[i] x_c = sum of row[col_of[r]] y_r. Each row is primitive, so
    d = lcm(scales) > 0 is the least common denominator of M^-1.
    SingularError when M is singular.
    """
    k = len(M)
    rows, pivots, scales = _exchange(M, k)
    if len(pivots) < k:
        raise SingularError("matrix is singular")
    d = lcm(*scales)
    col_of = [c for _, c in sorted(pivots)]
    adj = [None] * k
    for i, c in pivots:
        row, f = rows[i], d // scales[i]
        adj[c] = [f * row[j] for j in col_of]
    return adj, d


def _full_rank_inverse(a, n, nnz_a=None):
    """(rows, d) with A+ = rows / d when A (int rows a, m x n) has full row
    or full column rank, else SingularError.

    Square A is inverted; a wide A gives A^T (A A^T)^-1 and a tall one
    (A^T A)^-1 A^T, whose Gram is nonsingular exactly at full rank. nnz_a,
    when given, is the nonzero count of a.
    """
    m = len(a)
    if m == n:
        return _inverse(a)
    if nnz_a is None:
        nnz_a = _nnz(a)
    # A^T has the nonzeros of A
    at = _transpose(a, n)
    if m < n:
        adj, d = _inverse(_matmul(a, at, m, nnz_a, nnz_a))
        return _matmul(at, adj, m, nnz_a), d
    adj, d = _inverse(_matmul(at, a, n, nnz_a, nnz_a))
    return _matmul(adj, at, m, None, nnz_a), d


def _check_pair(A, X):
    if X.rows != A.cols or X.cols != A.rows:
        raise ShapeError(
            f"X must be {A.cols}x{A.rows} for A {A.rows}x{A.cols}, "
            f"got {X.rows}x{X.cols}"
        )


def _penrose(a, x, scale, reduce=None):
    """(report, ax_is_identity, xa_is_identity): the four Penrose conditions
    on the int rows a (m x n) and x (n x m), and whether a x and x a equal
    scale * I.

    A X A = A reads a x a = scale * a and X A X = X reads x a x = scale * x;
    reduce, when given, maps each product to the representatives that a
    and x are written in, which must be those of a field. The smaller of
    a x (m x m) and x a (n x n) is formed first. When it is scale * I, it
    proves conditions 1 and 2 and its own symmetry (Penrose 1955): then a
    square A is done, as a one-sided inverse over a field is two-sided. A
    wide A still needs X A symmetric, which holds exactly when X = A^T (X^T
    X): X = X A X = (X A)^T X one way, A^T (X^T X) A is symmetric the other.
    That reads a^T (x^T x) = scale * x, on m-wide products only, and is
    taken when a cost model on sizes and nnz says it is cheaper than x a.
    The larger product is no identity, its rank being below its size. Else
    both triple products go through the smaller product.
    """
    if len(a) > len(x):
        # a tall A: certify the wide pair (X, A), whose conditions are
        # those of (A, X) with 1 and 2, and 3 and 4, swapped
        report, xa_is_identity, ax_is_identity = _penrose(x, a, scale, reduce)
        c2, c1, c4, c3 = report
        return PenroseReport(c1, c2, c3, c4), ax_is_identity, xa_is_identity

    def product(left, right, ncols, nnz_left, nnz_right):
        rows = _matmul(left, right, ncols, nnz_left, nnz_right)
        return rows if reduce is None else reduce(rows)

    m, n = len(a), len(x)
    # each factor's nonzeros are counted once, for all the products it is in
    na, nx = _nnz(a), _nnz(x)
    ax = product(a, x, m, na, nx)
    if _is_scaled_identity(ax, scale):
        if m == n:
            return PenroseReport(True, True, True, True), True, True
        # a scanned nonzero costs about 60 entries of a row sum
        if (nx + na) * (60 + m) + 2 * m * n < min(nx, na) * (60 + n) + 2 * n * n:
            gram = product(_transpose(x, m), x, m, nx, nx)
            cond4 = product(_transpose(a, n), gram, m, na, None) == [
                [scale * v for v in row] for row in x
            ]
        else:
            cond4 = _is_symmetric(product(x, a, n, nx, na))
        return PenroseReport(True, True, True, cond4), True, False
    xa = product(x, a, n, nx, na)
    nax = _nnz(ax)
    axa, xax = product(ax, a, n, nax, na), product(x, ax, m, nx, nax)
    report = PenroseReport(
        cond1=axa == [[scale * v for v in row] for row in a],
        cond2=xax == [[scale * v for v in row] for row in x],
        cond3=_is_symmetric(ax),
        cond4=_is_symmetric(xa),
    )
    return report, False, _is_scaled_identity(xa, scale)


# ---------------------------------------------------------------------------
# public operations on RatMatrix values

def pseudoinverse_oracle(A):
    """The Moore-Penrose inverse of the RatMatrix A, exactly.

    With A = Ai / a for int rows Ai, A+ = a * Ai+. Ai+ is the full-rank
    factorization of Ai, or its skeleton below full rank.
    """
    a, Ai = A.den, A.nums
    m, n = A.rows, A.cols
    nnz = _nnz(Ai)
    try:
        rows, den = _full_rank_inverse(Ai, n, nnz)
    except SingularError:
        # rank < min(m, n): the skeleton F = A[:, J], R = A[I, :]
        pivots = _exchange(Ai, n)[1]
        k = len(pivots)
        if k == 0:
            return RatMatrix.zeros(n, m)
        Rt = _transpose([Ai[i] for i, _ in pivots], n)
        Ft = [[row[j] for row in Ai] for _, j in pivots]
        nr, nf = _nnz(Rt), _nnz(Ft)
        adj, den = _inverse(_matmul(Ft, _matmul(Ai, Rt, k, nnz, nr), k, nf))
        rows = _matmul(Rt, _matmul(adj, Ft, m, None, nf), m, nr)
    if a != 1:
        rows = [[a * v for v in row] for row in rows]
    return RatMatrix(n, m, den, rows)


def penrose_identities(A, X):
    """(report, ax_is_identity, xa_is_identity): the four Penrose
    conditions for (A, X) with exact equality, and whether A X and X A are
    identity matrices.

    With A = Ai / a and X = Xi / x for int rows Ai and Xi, A X A = A reads
    Ai Xi Ai = a x Ai and X A X = X reads Xi Ai Xi = a x Xi; symmetry is
    unaffected, and A X = I reads Ai Xi = a x I.
    """
    _check_pair(A, X)
    return _penrose(A.nums, X.nums, A.den * X.den)


def penrose_check(A, X):
    """Evaluate the four Penrose conditions for (A, X) with exact equality:
    the report of penrose_identities, without the identity verdicts."""
    return penrose_identities(A, X)[0]


def rat_matrix_mod_p(A, p):
    """Entrywise reduction to GF(p); NotReducibleError if p divides a denominator."""
    # one residue per distinct entry, met in row-major order, so an error
    # names the first entry that fails
    residue = {
        v: rat_mod_p(Fraction(v, A.den), p)
        for v in dict.fromkeys(chain.from_iterable(A.nums))
    }
    return RatMatrix(
        A.rows, A.cols, 1, [list(map(residue.__getitem__, row)) for row in A.nums]
    )


def _residue_rows(A, p):
    if A.den != 1:
        raise ParameterError("mod-p Penrose check needs integer entries; reduce first")
    return [[v % p for v in row] for row in A.nums]


def penrose_check_mod_p(A, X, p):
    """The four Penrose conditions over GF(p), plain transpose for 3 and 4.

    p must be prime, else ParameterError, as the one-sided shortcut of the
    certificate holds over a field only. A and X must carry integer entries
    (already reduced, e.g. through rat_matrix_mod_p).
    """
    _check_prime(p)
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
