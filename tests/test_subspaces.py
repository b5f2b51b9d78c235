from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpinc.combinat import all_subsets, gaussian_binomial
from mpinc.errors import InvalidFieldError, ParameterError, ShapeError
from mpinc.gf import build_field
from mpinc.linalg import RatMatrix, penrose_check, pseudoinverse_oracle
from mpinc.subspaces import (
    SubspaceBasis,
    build_incidence,
    char_p_obstruction,
    class_matrix,
    class_rows,
    count_contained_with_intersection,
    count_containing_with_intersection,
    enumerate_subspaces,
    expand_class_matrix,
    inclusion_support,
    intersection_dim,
    labels,
    meet_sizes,
    mpinv_class_values,
)
import reference
from reference import rref_gf, to_rows


def test_enumeration_counts_are_gaussian():
    assert len(enumerate_subspaces(2, 2, 1)) == 3
    assert len(enumerate_subspaces(4, 2, 2)) == 35
    for n in (0, 3):
        zero = SubspaceBasis(n=n, field=build_field(3), basis=(), pivots=(), points=frozenset())
        assert enumerate_subspaces(n, 3, 0) == (zero,)
    for (n, q, r) in [(3, 2, 1), (3, 2, 2), (4, 3, 2), (2, 9, 1)]:
        assert len(enumerate_subspaces(n, q, r)) == gaussian_binomial(n, r, q)


def test_enumeration_order_lines_of_gf2_plane():
    subs = enumerate_subspaces(2, 2, 1)
    rows = [to_rows(s.basis)[0] for s in subs]
    assert rows == [
        [1, 0],
        [1, 1],
        [0, 1],
    ]
    assert [s.pivots for s in subs] == [(0,), (0,), (1,)]


def test_enumeration_rejects_large_fields():
    with pytest.raises(ParameterError):
        enumerate_subspaces(2, 11, 1)
    with pytest.raises(ParameterError):
        enumerate_subspaces(2, 2, 3)


def test_bases_are_canonical_rref():
    f = build_field(3)
    for s in enumerate_subspaces(3, 3, 2):
        R, rank, pivots = rref_gf(s.basis, f)
        assert R == s.basis
        assert rank == len(s.basis) == 2
        assert pivots == s.pivots


def test_all_subspaces_distinct():
    seen = set()
    for s in enumerate_subspaces(4, 2, 2):
        key = s.basis
        assert key not in seen
        seen.add(key)


def test_intersection_dim():
    subs = enumerate_subspaces(2, 2, 1)
    a, b = subs[0], subs[2]
    assert intersection_dim(a, a) == 1
    assert intersection_dim(a, b) == 0
    planes = enumerate_subspaces(3, 2, 2)
    # two distinct planes in a 3-space meet in a line
    assert intersection_dim(planes[0], planes[1]) == 1


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3), (8, 2), (9, 2)])
def test_point_set_meet_matches_stacked_rank(q, n):
    # intersection_dim and build_incidence read point sets; rref_gf of the
    # two stacked bases is the linear-algebra reference
    f = build_field(q)
    spaces = [S for d in range(n + 1) for S in enumerate_subspaces(n, q, d)]
    for S in spaces:
        assert len(S.points) == gaussian_binomial(len(S.basis), 1, q)
    contains = {}
    for A in spaces:
        for B in spaces:
            rank = rref_gf(A.basis + B.basis, f)[1]
            assert intersection_dim(A, B) == len(A.basis) + len(B.basis) - rank
            contains[A, B] = rank == len(B.basis)
    for r in range(n + 1):
        for c in range(r, n + 1):
            cols = enumerate_subspaces(n, q, c)
            assert build_incidence(n, q, r, c).row_support == tuple(
                tuple(j for j, C in enumerate(cols) if contains[R, C])
                for R in enumerate_subspaces(n, q, r)
            )


@pytest.mark.parametrize("n", range(7))
def test_meet_sizes_of_subsets(n):
    rows = [S for d in range(n + 1) for S in all_subsets(n, d)]
    cols = rows[::-1]
    assert list(meet_sizes(rows, cols)) == [
        [sum(1 for x in R if x in C) for C in cols] for R in rows
    ]


def _span(S):
    f = S.field
    vectors = set()
    for coefs in product(range(f.q), repeat=len(S.basis)):
        v = (0,) * S.n
        for a, row in zip(coefs, S.basis):
            v = tuple(f.add[x][f.mul[a][y]] for x, y in zip(v, row))
        vectors.add(v)
    return vectors


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 2)])
def test_meet_sizes_of_subspace_point_sets(q, n):
    # an i-dimensional meet holds q^i vectors, i.e. [i]_q projective points
    rows = [S for d in range(n + 1) for S in enumerate_subspaces(n, q, d)]
    cols = rows[::-1]
    row_spans, col_spans = [_span(S) for S in rows], [_span(S) for S in cols]
    assert list(meet_sizes([S.points for S in rows], [S.points for S in cols])) == [
        [(len(a & b) - 1) // (q - 1) for b in col_spans] for a in row_spans
    ]


# Point-set families for the kernel tests: rows draw from more points than
# the columns, so some row points are held by no column; any set may be
# empty, and the first half of the columns is repeated after them.
_row_families = st.lists(st.frozensets(st.integers(0, 11), max_size=6), max_size=12)
_col_families = st.lists(st.frozensets(st.integers(0, 8), max_size=6), max_size=12).map(
    lambda cols: cols + cols[: len(cols) // 2]
)


@settings(max_examples=300, deadline=None)
@given(_row_families, _col_families)
@example([], [])
@example([frozenset()], [])
@example([], [frozenset()])
@example([frozenset(), frozenset({9})], [frozenset(), frozenset({1, 2}), frozenset({1, 2})])
def test_kernels_match_references_on_random_families(rows, cols):
    assert inclusion_support(rows, cols) == reference.holder_inclusion_support(rows, cols)
    assert list(meet_sizes(rows, cols)) == list(reference.pairwise_meet_sizes(rows, cols))


def _family_point_sets(n, q):
    # every member of every dimension, as point sets
    return [
        S if q == 1 else S.points for d in range(n + 1) for S in labels(n, q, d)
    ]


@pytest.mark.parametrize(
    "q, n", [(1, n) for n in range(9)] + [(2, n) for n in range(5)]
    + [(q, n) for q in (3, 4) for n in range(4)]
)
def test_kernels_match_references_on_families(q, n):
    sets = _family_point_sets(n, q)
    assert inclusion_support(sets, sets) == reference.holder_inclusion_support(sets, sets)
    assert list(meet_sizes(sets, sets)) == list(reference.pairwise_meet_sizes(sets, sets))


def test_kernels_match_references_on_gf9_family():
    # every member of GF(9)^3; a point is a tuple of GF(9) elements, ints
    # 0 to 8
    sets = _family_point_sets(3, 9)
    assert len(sets) == 184
    assert max(map(len, sets)) == gaussian_binomial(3, 1, 9) == 91
    assert inclusion_support(sets, sets) == reference.holder_inclusion_support(sets, sets)
    assert list(meet_sizes(sets, sets)) == list(reference.pairwise_meet_sizes(sets, sets))


@pytest.mark.parametrize("most", [255, 256, 65_535, 65_536])
def test_meet_sizes_wide_counter_fields(most):
    # a largest column of 256 or more points takes 2-byte counters, and one
    # of 65,536 or more 4-byte counters; the full meets fill a whole field
    every = frozenset(range(most))
    cols = [
        every,
        frozenset(range(1, most, 2)),
        frozenset(range(most + 10, most + 15)),  # holds no row point
        every,  # repeated
        frozenset(),
    ]
    rows = [
        every,
        frozenset(range(0, most, 3)),
        frozenset(range(most // 2, most + 3)),
        frozenset({-1}),  # held by no column
        frozenset(),
    ]
    got = list(meet_sizes(rows, cols))
    assert got == list(reference.pairwise_meet_sizes(rows, cols))
    assert got[0][0] == got[0][3] == most
    assert [sizes[2] for sizes in got] == [0] * len(rows)


def test_meet_sizes_yields_fresh_lists():
    # rows holding no indexed point, one or several each get a list of their own
    rows = [frozenset(), frozenset({7}), frozenset({1}), frozenset({1, 2})]
    yielded = list(meet_sizes(rows, [frozenset({1, 2}), frozenset({2})]))
    assert yielded == [[0, 0], [0, 0], [1, 0], [2, 1]]
    assert len({id(sizes) for sizes in yielded}) == len(rows)


@pytest.mark.parametrize("n, q, r, c", [(4, 1, 1, 2), (5, 1, 2, 3), (3, 2, 1, 2), (2, 3, 0, 1)])
def test_class_rows_place_any_stand_ins(n, q, r, c):
    # the class index i lands wherever values[i] does in the expansion
    cm = class_matrix(n, q, r, c)
    rows = [[cm.values[i] for i in row] for row in class_rows(cm, range(r + 1))]
    assert rows == expand_class_matrix(cm).to_rows()


@pytest.mark.parametrize("q, n_max", [(1, 7), (2, 4)])
def test_class_rows_cover_exactly_the_classes_that_occur(q, n_max):
    # an r-space and a c-space of an n-space meet in dimension at least
    # r + c - n, and every dimension from there up to r occurs; so for
    # n < r + c the classes below r + c - n never occur in the matrix
    for n in range(n_max + 1):
        for r in range(n + 1):
            for c in range(r, n + 1):
                rows = class_rows(class_matrix(n, q, r, c), range(r + 1))
                occurring = {i for row in rows for i in row}
                assert occurring == set(range(max(0, r + c - n), r + 1)), (n, q, r, c)


def test_intersection_dim_rejects_other_ambient_space():
    with pytest.raises(ShapeError):
        intersection_dim(enumerate_subspaces(2, 2, 1)[0], enumerate_subspaces(3, 2, 1)[0])
    with pytest.raises(ShapeError):
        intersection_dim(enumerate_subspaces(2, 2, 1)[0], enumerate_subspaces(2, 3, 1)[0])


def test_incidence_r_equals_c_identity():
    assert build_incidence(2, 2, 1, 1).to_rat_matrix() == RatMatrix.identity(3)


def test_incidence_fano_lines_in_planes():
    inc = build_incidence(3, 2, 1, 2)
    assert (inc.rows, inc.cols) == (7, 7)
    assert inc.row_sums() == [3] * 7
    assert inc.col_sums() == [3] * 7


def test_incidence_zero_subspace_row():
    inc = build_incidence(3, 2, 0, 1)
    assert (inc.rows, inc.cols) == (1, 7)
    assert inc.row_sums() == [7]


def test_incidence_entries_match_containment():
    lines = enumerate_subspaces(3, 2, 1)
    planes = enumerate_subspaces(3, 2, 2)
    inc = build_incidence(3, 2, 1, 2)
    for i, L in enumerate(lines):
        for j, P in enumerate(planes):
            contained = intersection_dim(L, P) == len(L.basis)
            assert inc.at(i, j) == (1 if contained else 0)


def test_class_values_fano():
    cm = class_matrix(3, 2, 1, 2)
    assert cm.values == (Fraction(-1, 6), Fraction(1, 3))


def test_class_values_r_equals_c():
    assert mpinv_class_values(3, 2, 2, 2) == (0, 0, 1)


def test_class_values_ambient_padding():
    # n < r+c computes in the padded ambient dimension
    assert mpinv_class_values(2, 2, 1, 2) == mpinv_class_values(3, 2, 1, 2)


def test_expand_zero_subspace_column():
    X = expand_class_matrix(class_matrix(3, 2, 0, 1))
    assert (X.rows, X.cols) == (7, 1)
    assert X.to_rows() == [[Fraction(1, 7)]] * 7


def test_expand_entries_by_intersection_class():
    cm = class_matrix(3, 2, 1, 2)
    X = expand_class_matrix(cm)
    lines = enumerate_subspaces(3, 2, 1)
    planes = enumerate_subspaces(3, 2, 2)
    for i, P in enumerate(planes):
        for j, L in enumerate(lines):
            assert X.at(i, j) == cm.values[intersection_dim(P, L)]


def test_expand_matches_oracle():
    for (n, q, r, c) in [(3, 2, 1, 2), (4, 2, 1, 2), (3, 3, 1, 2), (2, 4, 1, 1), (4, 2, 2, 2)]:
        A = build_incidence(n, q, r, c).to_rat_matrix()
        X = expand_class_matrix(class_matrix(n, q, r, c))
        assert X == pseudoinverse_oracle(A)
        assert penrose_check(A, X).all_ok


def test_regime_identities():
    # n > r+c: right inverse only
    A = build_incidence(4, 2, 1, 2).to_rat_matrix()
    X = expand_class_matrix(class_matrix(4, 2, 1, 2))
    assert A @ X == RatMatrix.identity(A.rows)
    assert X @ A != RatMatrix.identity(A.cols)
    # n = r+c: two-sided
    A = build_incidence(3, 2, 1, 2).to_rat_matrix()
    X = expand_class_matrix(class_matrix(3, 2, 1, 2))
    assert A @ X == RatMatrix.identity(7)
    assert X @ A == RatMatrix.identity(7)
    # n < r+c: left inverse only
    A = build_incidence(3, 2, 2, 2).to_rat_matrix()
    X = expand_class_matrix(class_matrix(3, 2, 2, 2))
    assert X @ A == RatMatrix.identity(A.cols)


def test_count_containing_examples():
    assert count_containing_with_intersection(4, 2, 1, 2, 0, 1) == 1
    assert count_containing_with_intersection(4, 2, 1, 2, 0, 0) == 6
    # C' = C forces i = r when k = r
    assert count_containing_with_intersection(3, 2, 1, 1, 1, 1) == 1


def test_count_contained_examples():
    assert count_contained_with_intersection(3, 2, 2, 1, 1, 1) == 1
    assert count_contained_with_intersection(3, 2, 2, 1, 1, 0) == 2


def test_count_parameter_validation():
    with pytest.raises(ParameterError):
        count_containing_with_intersection(4, 2, 2, 1, 0, 0)  # c < r
    with pytest.raises(ParameterError):
        count_containing_with_intersection(4, 2, 1, 2, 2, 1)  # k > i
    with pytest.raises(ParameterError):
        count_contained_with_intersection(3, 2, 2, 0, 1, 1)  # i > k
    # a q that is no field order is refused, as build_incidence refuses it
    with pytest.raises(InvalidFieldError, match=r"^6 is not a prime power$"):
        count_containing_with_intersection(4, 6, 1, 2, 0, 1)
    with pytest.raises(InvalidFieldError, match=r"^10 is not a prime power$"):
        count_contained_with_intersection(3, 10, 2, 1, 1, 0)
    with pytest.raises(InvalidFieldError, match=r"^2\.0 is not a prime power$"):
        count_containing_with_intersection(4, 2.0, 1, 2, 0, 1)


def test_count_containing_sums_to_superspace_count():
    # summing over i counts every c-space containing R once
    for (n, q, r, c, k) in [(4, 2, 1, 2, 0), (4, 2, 1, 2, 1), (5, 2, 2, 3, 1), (4, 3, 1, 2, 0)]:
        total = sum(
            count_containing_with_intersection(n, q, r, c, k, i)
            for i in range(k, r + 1)
        )
        assert total == gaussian_binomial(n - r, c - r, q)


def test_count_contained_sums_to_subspace_count():
    # summing over i counts every r-space inside C' once
    for (n, q, c, k, r) in [(3, 2, 2, 1, 1), (4, 2, 3, 2, 2), (4, 3, 2, 1, 1), (5, 2, 3, 2, 2)]:
        total = sum(
            count_contained_with_intersection(n, q, c, k, r, i)
            for i in range(0, k + 1)
        )
        assert total == gaussian_binomial(c, r, q)


def test_count_containing_against_enumeration():
    n, q, r, c = 4, 2, 1, 2
    spaces_r = enumerate_subspaces(n, q, r)
    spaces_c = enumerate_subspaces(n, q, c)
    R = spaces_r[0]
    for k in range(0, r + 1):
        picks = [Rp for Rp in spaces_r if intersection_dim(R, Rp) == k]
        Rp = picks[0]
        for i in range(k, r + 1):
            want = count_containing_with_intersection(n, q, r, c, k, i)
            got = sum(
                1
                for C in spaces_c
                if intersection_dim(R, C) == len(R.basis) and intersection_dim(Rp, C) == i
            )
            assert got == want, (k, i)


def test_count_contained_against_enumeration():
    # every realizable class k = dim(C intersect C') <= c, k > r included
    for q, n_max in ((2, 4), (3, 3)):
        for n in range(n_max + 1):
            for c in range(n + 1):
                spaces_c = enumerate_subspaces(n, q, c)
                C = spaces_c[0]
                witnesses = {}
                for Cp in spaces_c:
                    witnesses.setdefault(intersection_dim(C, Cp), Cp)
                for k, Cp in witnesses.items():
                    for r in range(c + 1):
                        tally = Counter(
                            intersection_dim(R, C)
                            for R in enumerate_subspaces(n, q, r)
                            if intersection_dim(R, Cp) == r
                        )
                        assert set(tally) <= set(range(min(k, r) + 1))
                        for i in range(min(k, r) + 1):
                            want = count_contained_with_intersection(n, q, c, k, r, i)
                            assert tally[i] == want, (q, n, c, k, r, i)


def test_counts_at_q1_against_subset_enumeration():
    # q = 1 counts subsets: every realizable (k, i) for n <= 6
    for n in range(7):
        for r in range(n + 1):
            R = tuple(range(1, r + 1))
            for c in range(r, n - r + 1):
                for Rp in all_subsets(n, r):
                    k = len(set(R) & set(Rp))
                    tally = Counter(
                        len(set(Rp) & set(C))
                        for C in all_subsets(n, c)
                        if set(R) <= set(C)
                    )
                    for i in range(k, r + 1):
                        want = count_containing_with_intersection(n, 1, r, c, k, i)
                        assert tally[i] == want, (n, r, c, k, i)
        for c in range(n + 1):
            C = tuple(range(1, c + 1))
            for Cp in all_subsets(n, c):
                k = len(set(C) & set(Cp))
                for r in range(c + 1):
                    tally = Counter(
                        len(set(R) & set(C))
                        for R in all_subsets(n, r)
                        if set(R) <= set(Cp)
                    )
                    for i in range(min(k, r) + 1):
                        want = count_contained_with_intersection(n, 1, c, k, r, i)
                        assert tally[i] == want, (n, c, k, r, i)


def test_char_p_admissible_examples():
    assert char_p_obstruction(3, 2, 1, 2, 5) is None
    assert char_p_obstruction(3, 2, 1, 2, 3) is not None
    # p = q is never admissible
    assert char_p_obstruction(3, 2, 1, 2, 2) is not None


def test_char_p_obstruction_text():
    assert char_p_obstruction(3, 2, 1, 2, 3) == "gaussian_binomial(2,1;q=2) = 3"
    assert char_p_obstruction(3, 2, 1, 2, 5) is None
    assert char_p_obstruction(3, 2, 1, 2, 2) == "q = 2"
