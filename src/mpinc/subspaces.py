"""The inclusion family: r-dimensional inside c-dimensional subspaces of
GF(q)^n, with q = 1 standing for r-subsets inside c-subsets of [1, n]; the
closed-form Moore-Penrose inverses; and the two subspace-counting formulas
behind them.

The set case is the q = 1 specialisation throughout: Gaussian binomials
become binomials, the q-power weight becomes 1, and dim(R intersect C)
becomes |R intersect C|.

Labels are pinned. Subsets are tuples in colexicographic order. A subspace is
identified by its canonical basis: the unique reduced row echelon form with
zero rows trimmed. Subspaces are ordered by pivot column sets in
colexicographic order, then free entries in row-major lexicographic order
over the field elements (ordered by their integer encoding sum c_i p^i).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .combinat import all_subsets, binomial, gaussian_binomial, subset_rank
from .errors import ParameterError, ShapeError
from .gf import GFMatrix, build_field, factor_prime_power, rref_gf
from .linalg import IncidenceMatrix, RatMatrix


def _check_params(n, q, r, c):
    if q != 1:
        factor_prime_power(q)
    if not (0 <= r <= c <= n):
        raise ParameterError(f"need 0 <= r <= c <= n, got r={r}, c={c}, n={n}")


def _gbinom(n, m, q):
    # [n, m]_q, which is the binomial C(n, m) at q = 1
    return binomial(n, m) if q == 1 else gaussian_binomial(n, m, q)


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


def labels(n, q, k):
    """The k-dimensional members of the family in pinned order: the k-subsets
    of [1, n] (colex) at q = 1, else the k-subspaces of GF(q)^n."""
    return all_subsets(n, k) if q == 1 else enumerate_subspaces(n, q, k)


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


def build_incidence(n, q, r, c):
    """The [n,r]_q x [n,c]_q 0/1 matrix with (R, C) entry 1 iff R inside C.

    Row sums are [n-r, c-r]_q; column sums are [c, r]_q.
    """
    _check_params(n, q, r, c)
    r_labels = labels(n, q, r)
    c_labels = labels(n, q, c)
    if q == 1:
        # rank the C(c, r) subsets of each C instead of testing every pair
        support = [[] for _ in r_labels]
        for col, C in enumerate(c_labels):
            for R in combinations(C, r):
                support[subset_rank(R, n, r)].append(col)
        support = tuple(map(tuple, support))
    else:
        support = tuple(
            tuple(j for j, C in enumerate(c_labels) if _contains(C, R))
            for R in r_labels
        )
    return IncidenceMatrix(
        rows=len(r_labels),
        cols=len(c_labels),
        row_support=support,
        row_labels=r_labels,
        col_labels=c_labels,
    )


def mpinv_class_values(n, q, r, c):
    """The inverse's entry value for each intersection dimension i = 0..r.

    value(i) = (-1)^(r-i) * [c-i-1, r-i]_q
               / ([N-r, c-r]_q * [N-c, r-i]_q * q^((c-r)(r-i) + C(r-i, 2)))
    with N = max(n, r+c). The numerator at i = r is the empty product 1
    (covers r = c, where [c-i-1, 0]_q has a negative top argument); all other
    binomials follow the zero convention. Denominator factors are always
    positive since N >= r+c. At q = 1 this is the set closed form
    (-1)^(r-i) * C(c-i-1, r-i) / (C(N-r, c-r) * C(N-c, r-i)).
    """
    _check_params(n, q, r, c)
    N = max(n, r + c)
    values = []
    for i in range(r + 1):
        num = 1 if i == r else _gbinom(c - i - 1, r - i, q)
        den = (
            _gbinom(N - r, c - r, q)
            * _gbinom(N - c, r - i, q)
            * q ** ((c - r) * (r - i) + binomial(r - i, 2))
        )
        values.append(Fraction((-1) ** (r - i) * num, den))
    return tuple(values)


@dataclass(frozen=True)
class ClassMatrix:
    """Compressed inverse: one rational per intersection dimension i = 0..r.

    Shape is [n,c]_q x [n,r]_q (the transpose orientation of the incidence
    matrix) with entry (C, R) = values[dim(R intersect C)]; q = 1 is the set
    family.
    """

    n: int
    q: int
    r: int
    c: int
    N: int
    values: tuple

    @property
    def rows(self):
        return _gbinom(self.n, self.c, self.q)

    @property
    def cols(self):
        return _gbinom(self.n, self.r, self.q)


def class_matrix(n, q, r, c):
    """ClassMatrix form of the closed-form inverse of build_incidence(n, q, r, c)."""
    return ClassMatrix(
        n=n, q=q, r=r, c=c, N=max(n, r + c), values=mpinv_class_values(n, q, r, c)
    )


def expand_class_matrix(cm):
    """Dense [n,c]_q x [n,r]_q matrix, entry (C, R) = values[dim(R intersect C)]."""
    r_labels = labels(cm.n, cm.q, cm.r)
    c_labels = labels(cm.n, cm.q, cm.c)
    values = cm.values
    flat = []
    for C in c_labels:
        if cm.q == 1:
            meet = set(C).intersection
            flat.extend(values[len(meet(R))] for R in r_labels)
        else:
            flat.extend(values[intersection_dim(R, C)] for R in r_labels)
    return RatMatrix(len(c_labels), len(r_labels), tuple(flat))


# Kept for perfbench/worker.py's traced replay, which calls it by module path.
build_subspace_incidence = build_incidence
# Kept for perfbench/worker.py's traced replay, which calls it by module path.
subspace_class_matrix = class_matrix
# Kept for perfbench/worker.py's traced replay, which calls it by module path.
expand_qclass_matrix = expand_class_matrix


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
    exhaustive enumeration in the test suite, k > r included.
    """
    if not (0 <= i <= min(k, r) and k <= c and r <= c <= n):
        raise ParameterError(
            f"need 0 <= i <= min(k, r), k <= c and r <= c <= n, "
            f"got n={n}, c={c}, k={k}, r={r}, i={i}"
        )
    return (
        gaussian_binomial(k, i, q)
        * gaussian_binomial(c - k, r - i, q)
        * q ** ((r - i) * (k - i))
    )


def _admissibility_factors(n, q, r, c):
    N = max(n, r + c)
    name = "binomial({},{})" if q == 1 else f"gaussian_binomial({{}},{{}};q={q})"
    factors = [(name.format(N - r, c - r), _gbinom(N - r, c - r, q))]
    factors.extend(
        (name.format(N - c, i), _gbinom(N - c, i, q)) for i in range(r + 1)
    )
    factors.append(("q", q))
    return factors


def char_p_obstruction(n, q, r, c, p):
    """Name and value of the first closed-form factor divisible by p, or None
    when the closed form reduces to a valid inverse over GF(p).

    The factors are [N-r, c-r]_q, [N-c, 0]_q, ..., [N-c, r]_q and q (which
    is 1 for sets). Sufficient for None: p > max(n-r, c) with p not
    dividing q.
    """
    _check_params(n, q, r, c)
    for name, value in _admissibility_factors(n, q, r, c):
        if value % p == 0:
            return f"{name} = {value}"
    return None
