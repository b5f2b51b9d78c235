"""The inclusion family: r-dimensional inside c-dimensional subspaces of
GF(q)^n, with q = 1 standing for r-subsets inside c-subsets of [1, n]; the
closed-form Moore-Penrose inverses; and the two subspace-counting formulas
behind them.

The set case is the q = 1 specialisation throughout: Gaussian binomials
become binomials, the q-power weight becomes 1, and dim(R intersect C)
becomes |R intersect C|.

Every member is handled through its point set. A subset is its own point
set; a d-dimensional subspace has [d]_q projective points (its nonzero
vectors whose first nonzero coordinate is 1), and [d]_1 = d. Two members
meet in dimension i exactly when they share [i]_q points, and R lies inside
C exactly when C holds every point of R, so inclusion and meet are set
operations for every q.

Labels are pinned. Subsets are tuples in colexicographic order. A subspace is
identified by its canonical basis: the unique reduced row echelon form with
zero rows trimmed. Subspaces are ordered by pivot column sets in
colexicographic order, then free entries in row-major lexicographic order
over the field elements, which are the ints 0 to q - 1 (see mpinc.gf).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from struct import Struct

from .combinat import all_subsets, binomial, gaussian_binomial
from .errors import ParameterError, ShapeError
from .gf import build_field, factor_prime_power
from .linalg import IncidenceMatrix, RatMatrix, scaled_ints
from .rationals import _check_prime


def _check_params(n, q, r, c):
    if q != 1:
        factor_prime_power(q)
    if not (0 <= r <= c <= n):
        raise ParameterError(f"need 0 <= r <= c <= n, got r={r}, c={c}, n={n}")


def _gbinom(n, m, q):
    # [n, m]_q, which is the binomial C(n, m) at q = 1
    return binomial(n, m) if q == 1 else gaussian_binomial(n, m, q)


class SubspaceBasis(namedtuple("SubspaceBasis", "n field basis pivots points")):
    """Canonical representative of one subspace of GF(q)^n.

    basis is the tuple of its rows in reduced row echelon form, one per
    dimension, each a tuple of int field elements, and points its frozenset
    of projective points, tuples of the same kind; two equal subspaces
    always produce identical SubspaceBasis values.
    """

    __slots__ = ()


def _span_points(f, rows):
    """The [dim]_q projective points of the span of the RREF rows: the
    vectors whose first nonzero coordinate is 1.

    In RREF the coordinate at pivot i of a combination is its i-th
    coefficient, so these are the combinations whose first nonzero
    coefficient is 1, listed without normalising.
    """
    add, mul = f.add, f.mul
    out = []
    for lead, first in enumerate(rows):
        later = rows[lead + 1 :]
        for coefs in product(range(f.q), repeat=len(later)):
            v = first
            for a, row in zip(coefs, later):
                if a:
                    v = tuple(add[x][mul[a][y]] for x, y in zip(v, row))
            out.append(v)
    return frozenset(out)


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
    for pivot_set in all_subsets(n, r):
        pivots = tuple(p - 1 for p in pivot_set)
        pivot_pos = set(pivots)
        free = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_pos
        ]
        template = [[0] * n for _ in range(r)]
        for i, p in enumerate(pivots):
            template[i][p] = 1
        for assignment in product(range(q), repeat=len(free)):
            rows = [row[:] for row in template]
            for (i, j), value in zip(free, assignment):
                rows[i][j] = value
            basis = tuple(map(tuple, rows))
            out.append(SubspaceBasis(
                n=n, field=f, basis=basis, pivots=pivots, points=_span_points(f, basis)
            ))
    return tuple(out)


def labels(n, q, k):
    """The k-dimensional members of the family in pinned order: the k-subsets
    of [1, n] (colex) at q = 1, else the k-subspaces of GF(q)^n."""
    return all_subsets(n, k) if q == 1 else enumerate_subspaces(n, q, k)


def intersection_dim(A, B):
    """dim(A intersect B), from the [i]_q points the two subspaces share."""
    if A.n != B.n or A.field != B.field:
        raise ShapeError("subspaces live in different ambient spaces")
    shared = len(A.points & B.points)
    dim, size = 0, 0
    while size < shared:
        dim, size = dim + 1, size * A.field.q + 1
    return dim


def _point_sets(q, members):
    # a subset is its own point set
    return members if q == 1 else tuple(S.points for S in members)


def _packed(col_sets, bits):
    """Each point of the column sets as one int with a bits-wide field per
    column, low field first: field j is 1 where column j holds the point,
    else 0. Repeated columns are kept apart."""
    packed, one = {}, 1
    for C in col_sets:
        for x in C:
            packed[x] = packed.get(x, 0) | one
        one <<= bits
    return packed


def inclusion_support(row_sets, col_sets):
    """Row supports of the 0/1 matrix with (R, C) entry 1 iff the point set
    C holds every point of R: the column indices of each row, increasing.

    Each point is packed in 1-bit fields, the int mask of the columns
    holding it, and a row's support is the set bits of the AND of its
    points' masks, low bit first. The AND starts from the all-columns mask,
    which is the empty set's support.
    """
    masks = _packed(col_sets, 1)
    every = (1 << len(col_sets)) - 1
    support = []
    for R in row_sets:
        held = every
        for x in R:
            held &= masks.get(x, 0)
        cols = []
        while held:
            low = held & -held
            cols.append(low.bit_length() - 1)
            held ^= low
        support.append(tuple(cols))
    return tuple(support)


# meet_sizes' counter fields: (bytes, standard-size struct code)
_FIELDS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def meet_sizes(row_sets, col_sets):
    """Yield, for each row point set R, the list of |R intersect C| over col_sets.

    Each point is packed in counter fields of the fewest of 1, 2, 4 or 8
    bytes that hold the size of the largest column set. A row's sizes are
    the sum of its points' ints, read back field by field, so a row costs
    |R| big-int additions. That size bounds every |R intersect C|, so no
    field carries into the next. A point set holds each point once.
    """
    most = max(map(len, col_sets), default=0)
    width, code = next((w, f) for w, f in _FIELDS if most < 256**w)
    size = len(col_sets) * width
    counters = _packed(col_sets, 8 * width)
    fields = Struct(f"<{len(col_sets)}{code}").unpack
    for R in row_sets:
        # a point no column holds adds 0
        total = sum(map(counters.get, R, repeat(0)))
        yield list(fields(total.to_bytes(size, "little")))


def incidence(q, row_labels, col_labels):
    """The 0/1 matrix on the labels with (R, C) entry 1 iff the point set of
    C holds every point of R: subsets or blocks at q = 1, else subspaces."""
    support = inclusion_support(_point_sets(q, row_labels), _point_sets(q, col_labels))
    return IncidenceMatrix(len(row_labels), len(col_labels), support, row_labels, col_labels)


def build_incidence(n, q, r, c):
    """The [n,r]_q x [n,c]_q 0/1 matrix with (R, C) entry 1 iff R inside C.

    Row sums are [n-r, c-r]_q; column sums are [c, r]_q.
    """
    _check_params(n, q, r, c)
    return incidence(q, labels(n, q, r), labels(n, q, c))


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


class ClassMatrix(namedtuple("ClassMatrix", "n q r c values")):
    """Compressed inverse: one rational per intersection dimension i = 0..r.

    Shape is [n,c]_q x [n,r]_q (the transpose orientation of the incidence
    matrix) with entry (C, R) = values[dim(R intersect C)]; q = 1 is the set
    family.
    """

    __slots__ = ()

    @property
    def rows(self):
        return _gbinom(self.n, self.c, self.q)

    @property
    def cols(self):
        return _gbinom(self.n, self.r, self.q)


def class_matrix(n, q, r, c):
    """ClassMatrix form of the closed-form inverse of build_incidence(n, q, r, c)."""
    return ClassMatrix(n=n, q=q, r=r, c=c, values=mpinv_class_values(n, q, r, c))


def class_rows(cm, values):
    """An iterator over the rows of the expansion of cm, in label order: the
    entry (C, R) is values[i] where R and C share [i]_q points.

    Pass cm.values for the rationals themselves, or any r + 1 stand-ins
    (their strings, say) to map each class once. The labels are enumerated
    before this returns, so an enumeration refusal comes at the call; the
    rows are made one at a time.
    """
    # the entry for [i]_q shared points is values[i]
    by_size = {_gbinom(i, 1, cm.q): value for i, value in enumerate(values)}
    pick = by_size.__getitem__
    row_sets = _point_sets(cm.q, labels(cm.n, cm.q, cm.c))
    col_sets = _point_sets(cm.q, labels(cm.n, cm.q, cm.r))
    return (list(map(pick, sizes)) for sizes in meet_sizes(row_sets, col_sets))


def expand_class_matrix(cm):
    """Dense [n,c]_q x [n,r]_q matrix, entry (C, R) = values[dim(R intersect C)].

    Its rows hold the class values scaled to ints, so no Fraction is built.
    """
    d, ints = scaled_ints(cm.values)
    return RatMatrix(cm.rows, cm.cols, d, list(class_rows(cm, ints)))


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

    The count does not depend on the choice of R, R'. At q = 1 it counts
    c-subsets, with binomials and weight 1. The middle top index n-2r+k is
    validated against exhaustive enumeration in the test suite.
    """
    if q != 1:
        factor_prime_power(q)
    if not (0 <= k <= i <= r <= c <= n - r):
        raise ParameterError(
            f"need 0 <= k <= i <= r <= c <= n-r, got n={n}, r={r}, c={c}, k={k}, i={i}"
        )
    return (
        _gbinom(r - k, i - k, q)
        * _gbinom(n - 2 * r + k, c - r - i + k, q)
        * q ** ((c - r - i + k) * (r - i))
    )


def count_contained_with_intersection(n, q, c, k, r, i):
    """How many r-dimensional R inside a fixed c-dimensional C' meet a fixed
    c-dimensional C (with dim(C intersect C') = k) in dimension i.

        [k, i]_q * [c-k, r-i]_q * q^((r-i)(k-i))

    Independent of n and of the choice of C, C'; at q = 1 it counts
    r-subsets. Validated against exhaustive enumeration in the test suite,
    k > r included.
    """
    if q != 1:
        factor_prime_power(q)
    if not (0 <= i <= min(k, r) and k <= c and r <= c <= n):
        raise ParameterError(
            f"need 0 <= i <= min(k, r), k <= c and r <= c <= n, "
            f"got n={n}, c={c}, k={k}, r={r}, i={i}"
        )
    return (
        _gbinom(k, i, q)
        * _gbinom(c - k, r - i, q)
        * q ** ((r - i) * (k - i))
    )


def char_p_obstruction(n, q, r, c, p):
    """Name and value of the first closed-form factor divisible by p, or None
    when the closed form reduces to a valid inverse over GF(p).

    The factors are [N-r, c-r]_q, [N-c, 0]_q, ..., [N-c, r]_q and q (which
    is 1 for sets). Sufficient for None: p > max(n-r, c) with p not
    dividing q. p must be prime, else ParameterError, as in rat_mod_p.
    """
    _check_params(n, q, r, c)
    _check_prime(p)
    N = max(n, r + c)
    name = "binomial({},{})" if q == 1 else f"gaussian_binomial({{}},{{}};q={q})"
    for top, bottom in ((N - r, c - r), *((N - c, i) for i in range(r + 1))):
        value = _gbinom(top, bottom, q)
        if value % p == 0:
            return f"{name.format(top, bottom)} = {value}"
    return f"q = {q}" if q % p == 0 else None
