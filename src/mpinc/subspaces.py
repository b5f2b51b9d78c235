"""Inclusion matrices of r-dimensional vs c-dimensional subspaces of GF(q)^n,
their closed-form Moore-Penrose inverses, and the two subspace-counting
formulas behind them.

A subspace is identified by its canonical basis: the unique reduced row
echelon form with zero rows trimmed. Enumeration order is pinned: pivot
column sets in colexicographic order, then free entries in row-major
lexicographic order over the field elements (ordered by their integer
encoding sum c_i p^i).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .combinat import binomial, gaussian_binomial
from .errors import ParameterError, ShapeError
from .gf import GFMatrix, build_field, factor_prime_power, rref_gf
from .linalg import IncidenceMatrix, RatMatrix
from .subsets import all_subsets


def _check_params(n, q, r, c):
    factor_prime_power(q)
    if not (0 <= r <= c <= n):
        raise ParameterError(f"need 0 <= r <= c <= n, got r={r}, c={c}, n={n}")


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical representative of one subspace of GF(q)^n.

    basis is in reduced row echelon form with exactly dim rows; two equal
    subspaces always produce identical SubspaceBasis values.
    """

    n: int
    field: object
    basis: GFMatrix
    pivots: tuple

    @property
    def dim(self):
        return self.basis.rows


def _check_enum_params(n, q, r):
    if not (0 <= r <= n):
        raise ParameterError(f"need 0 <= r <= n, got r={r}, n={n}")
    if q > 9:
        raise ParameterError(f"enumeration is capped at q <= 9, got q={q}")


@lru_cache(maxsize=None)
def enumerate_subspaces(n, q, r):
    """All r-dimensional subspaces of GF(q)^n as canonical bases, pinned order.

    The result length is gaussian_binomial(n, r, q).
    """
    _check_enum_params(n, q, r)
    f = build_field(q)
    out = []
    if r == 0:
        return (SubspaceBasis(n=n, field=f, basis=GFMatrix(0, n, ()), pivots=()),)
    for pivot_set in all_subsets(n, r):
        pivots = tuple(p - 1 for p in pivot_set)
        pivot_pos = set(pivots)
        free = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_pos
        ]
        template = [[f.zero] * n for _ in range(r)]
        for i, p in enumerate(pivots):
            template[i][p] = f.one
        for assignment in product(f.elements, repeat=len(free)):
            rows = [row[:] for row in template]
            for (i, j), value in zip(free, assignment):
                rows[i][j] = value
            flat = tuple(x for row in rows for x in row)
            out.append(
                SubspaceBasis(n=n, field=f, basis=GFMatrix(r, n, flat), pivots=pivots)
            )
    return tuple(out)


def intersection_dim(A, B):
    """dim(A intersect B) = dim A + dim B - dim(A + B), via one stacked rank."""
    if A.n != B.n or A.field != B.field:
        raise ShapeError("subspaces live in different ambient spaces")
    stacked = GFMatrix(
        A.basis.rows + B.basis.rows, A.n, A.basis.entries + B.basis.entries
    )
    _, rank, _ = rref_gf(stacked, A.field)
    return A.dim + B.dim - rank


def _contains(C, R):
    # R inside C iff dim(R intersect C) = dim R; one primitive, one code path
    return intersection_dim(R, C) == R.dim


def build_subspace_incidence(n, q, r, c):
    """The [n,r]_q x [n,c]_q 0/1 matrix with (R, C) entry 1 iff R inside C.

    Row sums are [n-r, c-r]_q; column sums are [c, r]_q.
    """
    if not (0 <= r <= c <= n):
        raise ParameterError(f"need 0 <= r <= c <= n, got r={r}, c={c}, n={n}")
    r_spaces = enumerate_subspaces(n, q, r)
    c_spaces = enumerate_subspaces(n, q, c)
    support = []
    for R in r_spaces:
        support.append(
            tuple(j for j, C in enumerate(c_spaces) if _contains(C, R))
        )
    return IncidenceMatrix(
        rows=len(r_spaces),
        cols=len(c_spaces),
        row_support=tuple(support),
        row_labels=r_spaces,
        col_labels=c_spaces,
    )


def subspace_mpinv_class_values(n, q, r, c):
    """The inverse's entry value for each intersection dimension i = 0..r.

    value(i) = (-1)^(r-i) * [c-i-1, r-i]_q
               / ([N-r, c-r]_q * [N-c, r-i]_q * q^((c-r)(r-i) + C(r-i, 2)))
    with N = max(n, r+c). As in the set case, the numerator at i = r is the
    empty product 1; everything else follows the zero convention.
    """
    _check_params(n, q, r, c)
    N = max(n, r + c)
    values = []
    for i in range(r + 1):
        num = 1 if i == r else gaussian_binomial(c - i - 1, r - i, q)
        den = (
            gaussian_binomial(N - r, c - r, q)
            * gaussian_binomial(N - c, r - i, q)
            * q ** ((c - r) * (r - i) + binomial(r - i, 2))
        )
        values.append(Fraction((-1) ** (r - i) * num, den))
    return tuple(values)


@dataclass(frozen=True)
class QClassMatrix:
    """Compressed inverse: one rational per intersection dimension i = 0..r.

    Shape is [n,c]_q x [n,r]_q with entry (C, R) = values[dim(R intersect C)].
    """

    n: int
    q: int
    r: int
    c: int
    N: int
    values: tuple

    @property
    def rows(self):
        return gaussian_binomial(self.n, self.c, self.q)

    @property
    def cols(self):
        return gaussian_binomial(self.n, self.r, self.q)


def subspace_class_matrix(n, q, r, c):
    """QClassMatrix form of the closed-form inverse of build_subspace_incidence."""
    return QClassMatrix(
        n=n, q=q, r=r, c=c, N=max(n, r + c),
        values=subspace_mpinv_class_values(n, q, r, c),
    )


def expand_qclass_matrix(qcm):
    """Dense [n,c]_q x [n,r]_q matrix, entry (C, R) = values[dim(R intersect C)]."""
    r_spaces = enumerate_subspaces(qcm.n, qcm.q, qcm.r)
    c_spaces = enumerate_subspaces(qcm.n, qcm.q, qcm.c)
    values = qcm.values
    flat = []
    for C in c_spaces:
        flat.extend(values[intersection_dim(R, C)] for R in r_spaces)
    return RatMatrix(len(c_spaces), len(r_spaces), tuple(flat))


def count_containing_with_intersection(n, q, r, c, k, i):
    """How many c-dimensional C contain a fixed r-dimensional R and meet a
    fixed r-dimensional R' (with dim(R intersect R') = k) in dimension i.

        [r-k, i-k]_q * [n-2r+k, c-r-i+k]_q * q^((c-r-i+k)(r-i))

    The count does not depend on the choice of R, R'. The middle top index
    n-2r+k is validated against exhaustive enumeration in the test suite.
    """
    if not (0 <= k <= i <= r <= c <= n - r):
        raise ParameterError(
            f"need 0 <= k <= i <= r <= c <= n-r, got n={n}, r={r}, c={c}, k={k}, i={i}"
        )
    return (
        gaussian_binomial(r - k, i - k, q)
        * gaussian_binomial(n - 2 * r + k, c - r - i + k, q)
        * q ** ((c - r - i + k) * (r - i))
    )


def count_contained_with_intersection(n, q, c, k, r, i):
    """How many r-dimensional R inside a fixed c-dimensional C' meet a fixed
    c-dimensional C (with dim(C intersect C') = k) in dimension i.

        [k, i]_q * [c-k, r-i]_q * q^((r-i)(k-i))

    Independent of n and of the choice of C, C'; validated against
    exhaustive enumeration in the test suite.
    """
    if not (0 <= i <= k <= r <= c <= n):
        raise ParameterError(
            f"need 0 <= i <= k <= r <= c <= n, got n={n}, c={c}, k={k}, r={r}, i={i}"
        )
    return (
        gaussian_binomial(k, i, q)
        * gaussian_binomial(c - k, r - i, q)
        * q ** ((r - i) * (k - i))
    )


def _subspace_admissibility_factors(n, q, r, c):
    N = max(n, r + c)
    factors = [
        (f"gaussian_binomial({N - r},{c - r};q={q})", gaussian_binomial(N - r, c - r, q))
    ]
    factors.extend(
        (f"gaussian_binomial({N - c},{i};q={q})", gaussian_binomial(N - c, i, q))
        for i in range(r + 1)
    )
    factors.append(("q", q))
    return factors


def char_p_admissible_subspace(n, q, r, c, p):
    """Whether the closed form reduces to a valid inverse over GF(p).

    True iff p divides neither q nor any of [N-r, c-r]_q, [N-c, 0]_q, ...,
    [N-c, r]_q. Sufficient for that: p > max(n-r, c) with p not dividing q.
    """
    _check_params(n, q, r, c)
    return all(value % p != 0 for _, value in _subspace_admissibility_factors(n, q, r, c))


def char_p_obstruction_subspace(n, q, r, c, p):
    """Name and value of the first factor divisible by p, or None if admissible."""
    _check_params(n, q, r, c)
    for name, value in _subspace_admissibility_factors(n, q, r, c):
        if value % p == 0:
            return f"{name} = {value}"
    return None
