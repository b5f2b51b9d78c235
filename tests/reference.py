"""Reference implementations the tests check mpinc against.

None of these ship in mpinc: no program of the package needs them. Each
is written from its definition and shares no elimination kernel with mpinc.
pytest does not collect this module; tests import it by name.
"""

import json
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

from mpinc.combinat import binomial
from mpinc.errors import InvalidFieldError, ParameterError, ShapeError
from mpinc.linalg import IncidenceMatrix, PenroseReport, RatMatrix


# ---------------------------------------------------------------------------
# GF(q): elements, matrices as tuples of row tuples, and row reduction, read
# off the field's tables

def element(f, value):
    """The int element of f for an int (prime fields only) or for its
    coefficients c_0, c_1, ... over GF(p): sum c_i p^i, each c_i taken mod p."""
    if isinstance(value, int):
        if f.e == 1:
            return value % f.p
        raise InvalidFieldError(f"GF({f.q}) elements need {f.e} coefficients, got int")
    t = tuple(int(c) % f.p for c in value)
    if len(t) != f.e:
        raise InvalidFieldError(f"GF({f.q}) elements need {f.e} coefficients, got {len(t)}")
    return sum(c * f.p**i for i, c in enumerate(t))


def from_rows(rows, f):
    """The matrix over f with the given rows of ints or coefficient sequences."""
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ShapeError("ragged rows")
    return tuple(tuple(element(f, x) for x in row) for row in rows)


def to_rows(A):
    return [list(row) for row in A]


def gf_neg(a, f):
    """The b with a + b = 0, found in the addition table."""
    return next(b for b in range(f.q) if f.add[a][b] == 0)


def gf_inv(a, f):
    """The b with a b = 1, found in the multiplication table."""
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in GF({f.q})")
    return next(b for b in range(f.q) if f.mul[a][b] == 1)


def rref_gf(A, f):
    """Reduced row echelon form over GF(q): (rref, rank, pivot_columns).

    Zero rows are trimmed, so the rref has exactly rank rows.
    """
    rows = to_rows(A)
    add, mul = f.add, f.mul
    pivots = []
    for col in range(len(A[0]) if A else 0):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        s = gf_inv(rows[rank][col], f)
        prow = rows[rank] = [mul[s][x] for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                nf = gf_neg(row[col], f)
                rows[i] = [add[x][mul[nf][y]] for x, y in zip(row, prow)]
        pivots.append(col)
    rank = len(pivots)
    return tuple(map(tuple, rows[:rank])), rank, tuple(pivots)


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


def rat_matrix(rows, cols, entries):
    """The rows x cols RatMatrix of the row-major rationals entries.

    It is built from its fields with den the product of the entries'
    denominators, a multiple of the canonical one, which the constructor
    reduces.
    """
    entries = [Fraction(x) for x in entries]
    if len(entries) != rows * cols:
        raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
    den = prod(x.denominator for x in entries)
    nums = [x.numerator * (den // x.denominator) for x in entries]
    return RatMatrix(rows, cols, den, [nums[i * cols : (i + 1) * cols] for i in range(rows)])


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
    R = rat_matrix(rank, A.cols, [x for row in rows[:rank] for x in row])
    return R, rank, tuple(pivots)


# ---------------------------------------------------------------------------
# reading what the writers emit, with the standard library

def read_csv(text):
    """The RatMatrix of a CSV text of rationals, one Fraction(cell) each."""
    return RatMatrix.from_rows([[Fraction(cell) for cell in line.split(",")]
                                for line in text.splitlines()])


def read_json(text):
    """The RatMatrix of a JSON matrix document's entries."""
    doc = json.loads(text)
    return rat_matrix(doc["rows"], doc["cols"],
                      [Fraction(x) for row in doc["entries"] for x in row])


def read_mtx(text):
    """The IncidenceMatrix of a Matrix Market pattern text, read off its size
    line and its 1-based coordinate lines."""
    _, size, *body = text.splitlines()
    rows, cols, _ = map(int, size.split())
    support = [[] for _ in range(rows)]
    for line in body:
        i, j = map(int, line.split())
        support[i - 1].append(j - 1)
    return IncidenceMatrix(rows, cols, tuple(map(tuple, support)))


# ---------------------------------------------------------------------------
# point-set kernels, pair by pair

def holder_inclusion_support(row_sets, col_sets):
    """Row supports of the 0/1 matrix with (R, C) entry 1 iff C holds every
    point of R: each point indexes the set of columns holding it, and a
    row's support is the sorted intersection of those sets (every column
    for the empty set)."""
    holders = {}
    for j, C in enumerate(col_sets):
        for x in C:
            holders.setdefault(x, set()).add(j)
    every = tuple(range(len(col_sets)))
    none = frozenset()
    support = []
    for R in row_sets:
        if R:
            first, *rest = (holders.get(x, none) for x in R)
            support.append(tuple(sorted(first.intersection(*rest))))
        else:
            support.append(every)
    return tuple(support)


def pairwise_meet_sizes(row_sets, col_sets):
    """Yield, for each row point set R, the list of |R intersect C| over
    col_sets, one set intersection per pair."""
    for R in row_sets:
        meet = set(R).intersection
        yield [len(meet(C)) for C in col_sets]


# ---------------------------------------------------------------------------
# the skeleton pseudoinverse, in Fractions

def _fraction_product(A, B):
    """A @ B as sums of Fraction products, row by row: row i is the sum of
    a * B.row(k) over the nonzero entries a = A[i, k]."""
    entries = []
    for i in range(A.rows):
        row = [Fraction(0)] * B.cols
        for k, a in enumerate(A.row(i)):
            if a:
                row = [x + a * y for x, y in zip(row, B.row(k))]
        entries += row
    return rat_matrix(A.rows, B.cols, entries)


def skeleton_pseudoinverse(A):
    """A+ = R^T (F^T A R^T)^-1 F^T with F = A[:, J] and R = A[I, :], for the
    pivot columns J of A and its pivot rows I (the pivot columns of A^T).

    This is the skeleton form at every rank, with the k x k inverse read
    off the reduced row echelon form of [K | I].
    """
    _, k, cols = rref_rational(A)
    if k == 0:
        return RatMatrix.zeros(A.cols, A.rows)
    _, _, rows = rref_rational(A.transpose())
    F = RatMatrix.from_rows([[A.at(i, j) for j in cols] for i in range(A.rows)])
    R = RatMatrix.from_rows([A.row(i) for i in rows])
    K = _fraction_product(_fraction_product(F.transpose(), A), R.transpose())
    augmented = RatMatrix.from_rows(
        [list(K.row(i)) + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    )
    reduced, _, pivots = rref_rational(augmented)
    assert pivots == tuple(range(k)), "F^T A R^T is singular"
    K_inv = RatMatrix.from_rows([list(reduced.row(i))[k:] for i in range(k)])
    return _fraction_product(_fraction_product(R.transpose(), K_inv), F.transpose())


# ---------------------------------------------------------------------------
# the Penrose conditions and the determinant, from their definitions

def penrose_reference(A, X, p=None):
    """(report, ax_is_identity, xa_is_identity) for the pair (A, X), read
    off the four products A X, X A, (A X) A and (X A) X formed entry by
    entry: as sums of Fraction products, or, when p is given, as int
    products mod p of the integer entries of A and X."""
    if p is None:
        product = _fraction_product
    else:
        if A.den != 1 or X.den != 1:
            raise ParameterError("a product mod p needs integer entries")
        A, X = (RatMatrix(N.rows, N.cols, 1, [[v % p for v in row] for row in N.nums])
                for N in (A, X))

        def product(P, Q):
            rows = []
            for prow in P.nums:
                terms = [(k, v) for k, v in enumerate(prow) if v]
                rows.append([sum(v * Q.nums[k][j] for k, v in terms) % p for j in range(Q.cols)])
            return RatMatrix(P.rows, Q.cols, 1, rows)
    ax, xa = product(A, X), product(X, A)
    report = PenroseReport(
        cond1=product(ax, A) == A,
        cond2=product(xa, X) == X,
        cond3=ax == ax.transpose(),
        cond4=xa == xa.transpose(),
    )
    return report, ax == RatMatrix.identity(A.rows), xa == RatMatrix.identity(A.cols)


def leibniz_determinant(rows):
    """det of a square matrix of ints: the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total
