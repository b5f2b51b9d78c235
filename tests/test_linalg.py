import ast
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mpinc.linalg
from mpinc.designs import Design, build_design_incidence, parse_design
from mpinc.errors import NotReducibleError, ParameterError, ShapeError, SingularError
from mpinc.formats import write_csv
from mpinc.linalg import (
    IncidenceMatrix,
    RatMatrix,
    first_difference,
    penrose_check,
    penrose_check_mod_p,
    penrose_identities,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from mpinc.rationals import rat_mod_p
from mpinc.subspaces import (
    build_incidence,
    class_matrix,
    enumerate_subspaces,
    expand_class_matrix,
    intersection_dim,
    labels,
)
from reference import (
    leibniz_determinant,
    penrose_reference,
    rat_matrix,
    read_csv,
    rref_rational,
    skeleton_pseudoinverse,
)


def M(rows):
    return RatMatrix.from_rows(rows)


def random_matrix(rng, max_dim=8):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    # mix full-entropy matrices with low-rank products so ranks vary
    if rng.random() < 0.5:
        entries = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
            for _ in range(rows)
        ]
        return M(entries)
    k = rng.randint(1, min(rows, cols))
    F = [[Fraction(rng.randint(-4, 4)) for _ in range(k)] for _ in range(rows)]
    G = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(k)]
    return M(F) @ M(G)


def test_rat_matrix_shape_checks():
    with pytest.raises(ShapeError):
        RatMatrix(2, 2, 1, [[1, 1], [1]])
    with pytest.raises(ShapeError):
        M([[1, 2], [3]])


def test_rat_matrix_refuses_a_zero_denominator():
    # 1/0 and 5/0 are no matrices, equal or not
    for nums in ([[1]], [[5]]):
        with pytest.raises(ParameterError, match=r"^denominator must be nonzero, got den=0$"):
            RatMatrix(1, 1, 0, nums)


def test_matmul_and_transpose():
    A = M([[1, 2], [3, 4]])
    B = M([[0, 1], [1, 0]])
    assert (A @ B).to_rows() == [[2, 1], [4, 3]]
    assert A.transpose().to_rows() == [[1, 3], [2, 4]]
    with pytest.raises(ShapeError):
        A @ M([[1, 2, 3]])


def test_rref_proportional_rows():
    R, rank, pivots = rref_rational(M([[2, 4], [1, 2]]))
    assert R.to_rows() == [[1, 2]]
    assert rank == 1
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    I = RatMatrix.identity(3)
    R, rank, pivots = rref_rational(I)
    assert R == I
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_back_substitution():
    R, rank, _ = rref_rational(M([[1, 1], [0, 1]]))
    assert R == RatMatrix.identity(2)
    assert rank == 2


def test_is_identity():
    assert RatMatrix.identity(3).is_identity()
    assert RatMatrix.identity(0).is_identity()
    assert (M([[2, 0], [0, 2]]) @ M([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])).is_identity()
    assert not M([[2, 0], [0, 2]]).is_identity()
    assert not M([[Fraction(1, 2), 0], [0, 1]]).is_identity()
    assert not M([[1, 0], [1, 1]]).is_identity()
    assert not M([[0, 1], [1, 0]]).is_identity()
    assert not M([[1, 0]]).is_identity()


def test_oracle_identity():
    I = RatMatrix.identity(3)
    assert pseudoinverse_oracle(I) == I


def test_oracle_uniform_row():
    A = M([[1, 1, 1, 1]])
    X = pseudoinverse_oracle(A)
    assert X.to_rows() == [[Fraction(1, 4)], [Fraction(1, 4)], [Fraction(1, 4)], [Fraction(1, 4)]]


def test_oracle_rank_one_square():
    A = M([[1, 1], [1, 1]])
    X = pseudoinverse_oracle(A)
    assert X.to_rows() == [[Fraction(1, 4)] * 2] * 2
    assert penrose_check(A, X).all_ok


def test_oracle_zero_matrix():
    A = RatMatrix.zeros(2, 3)
    assert pseudoinverse_oracle(A) == RatMatrix.zeros(3, 2)


def test_penrose_identity_pair():
    I = RatMatrix.identity(2)
    report = penrose_check(I, I)
    assert report.all_ok


def test_penrose_scalar_counterexample():
    A = M([[2]])
    report = penrose_check(A, A.transpose())
    assert not report.cond1  # 2*2*2 = 8 != 2


def test_penrose_shape_error():
    with pytest.raises(ShapeError):
        penrose_check(M([[1, 2]]), M([[1, 2]]))


def test_oracle_properties_random(rng):
    for _ in range(25):
        A = random_matrix(rng, max_dim=6)
        X = pseudoinverse_oracle(A)
        assert penrose_check(A, X).all_ok
        assert pseudoinverse_oracle(X) == A
        assert pseudoinverse_oracle(A.transpose()) == X.transpose()


def test_oracle_one_sided_inverses(rng):
    for _ in range(10):
        # full row rank: stack an identity next to random columns
        n = rng.randint(1, 4)
        extra = rng.randint(0, 3)
        rows = [
            [Fraction(1 if i == j else 0) for j in range(n)]
            + [Fraction(rng.randint(-3, 3)) for _ in range(extra)]
            for i in range(n)
        ]
        A = M(rows)
        X = pseudoinverse_oracle(A)
        assert (A @ X) == RatMatrix.identity(n)
        B = A.transpose()
        Y = pseudoinverse_oracle(B)
        assert (Y @ B) == RatMatrix.identity(n)


def test_incidence_matrix_helpers():
    inc = IncidenceMatrix(rows=2, cols=3, row_support=((0, 2), (1,)))
    assert inc.at(0, 2) == 1
    assert inc.at(1, 2) == 0
    assert inc.nnz() == 3
    assert inc.row_sums() == [2, 1]
    assert inc.col_sums() == [1, 1, 1]
    assert inc.to_rat_matrix().to_rows() == [[1, 0, 1], [0, 1, 0]]


def test_rat_matrix_mod_p():
    A = M([[Fraction(1, 3), Fraction(-1, 6)]])
    R = rat_matrix_mod_p(A, 5)
    assert R.to_rows() == [[2, 4]]


def test_penrose_mod_p_identity():
    I = RatMatrix.identity(3)
    assert penrose_check_mod_p(I, I, 5).all_ok


def test_penrose_mod_p_characteristic_kills_gram():
    A = M([[1, 1, 1]])
    X = M([[1], [1], [1]])
    report = penrose_check_mod_p(A, X, 3)
    assert not report.cond1  # AXA = 3A = 0 mod 3


def test_penrose_mod_p_needs_integer_entries():
    A = M([[Fraction(1, 2)]])
    with pytest.raises(ParameterError):
        penrose_check_mod_p(A, A, 5)


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_penrose_mod_p_refuses_a_modulus_that_is_not_prime(p):
    # over Z/1 every condition would hold, Z/0 would divide by zero, and
    # Z/4 is no field, where a one-sided inverse proves nothing
    A, X = M([[1, 2], [3, 4]]), M([[5, 0], [0, 7]])
    with pytest.raises(ParameterError, match=rf"^modulus {p} is not prime$"):
        penrose_check_mod_p(A, X, p)


def test_first_difference():
    A = M([[1, 2], [3, 4]])
    B = M([[1, 2], [3, 5]])
    assert first_difference(A, B) == (1, 1)
    assert first_difference(A, A) is None
    with pytest.raises(ShapeError):
        first_difference(A, M([[1, 2]]))


def with_zero_row_and_column(A, rng):
    rows = A.to_rows()
    i = rng.randint(0, A.rows)
    rows.insert(i, [Fraction(0)] * A.cols)
    j = rng.randint(0, A.cols)
    return M([row[:j] + [Fraction(0)] + row[j:] for row in rows])


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
        lambda x: x.denominator > 1
    ),
)
def test_oracle_rank_deficient_rational(rnd, scale):
    A = random_matrix(rnd, max_dim=6)
    A = with_zero_row_and_column(M([[scale * x for x in row] for row in A.to_rows()]), rnd)
    assert rref_rational(A)[1] < min(A.rows, A.cols)
    X = pseudoinverse_oracle(A)
    assert penrose_check(A, X).all_ok
    assert pseudoinverse_oracle(X) == A


# (A, X) pairs where exactly one Penrose condition fails: square, tall
# (m > n) and wide (m < n), so that both orientations of the triple
# products are exercised. X = 0 fails only A X A = A, and A = 0 only X A X = X.
ONE_CONDITION_FAILS = {
    "cond1": (M([[1, 2], [0, 0]]), RatMatrix.zeros(2, 2)),
    "cond1-tall": (M([[1], [2], [0]]), RatMatrix.zeros(1, 3)),
    "cond1-wide": (M([[1, 2, 0]]), RatMatrix.zeros(3, 1)),
    "cond2": (RatMatrix.zeros(2, 2), M([[1, 0], [Fraction(1, 3), 1]])),
    "cond2-tall": (RatMatrix.zeros(3, 1), M([[1, Fraction(1, 3), 0]])),
    "cond2-wide": (RatMatrix.zeros(1, 3), M([[1], [Fraction(1, 3)], [0]])),
    "cond3": (M([[1], [1]]), M([[1, 0]])),
    "cond3-wide": (M([[1, 0, 0], [1, 0, 0]]), M([[1, 0], [0, 0], [0, 0]])),
    "cond4": (M([[1, 1]]), M([[1], [0]])),
    "cond4-tall": (M([[1, 1], [0, 0], [0, 0]]), M([[1, 0, 0], [0, 0, 0]])),
}


def failed_conditions(report):
    return {c for c in ("cond1", "cond2", "cond3", "cond4") if not getattr(report, c)}


@pytest.mark.parametrize("name", sorted(ONE_CONDITION_FAILS))
def test_penrose_check_flags_exactly_one_condition(name):
    A, X = ONE_CONDITION_FAILS[name]
    assert failed_conditions(penrose_check(A, X)) == {name.split("-")[0]}
    assert penrose_check(A, pseudoinverse_oracle(A)).all_ok


@pytest.mark.parametrize("name", sorted(ONE_CONDITION_FAILS))
def test_penrose_mod_p_flags_the_same_condition(name):
    # every entry and product here is far below p, so reduction keeps
    # each equality and each inequality
    p = 10007
    A, X = ONE_CONDITION_FAILS[name]
    report = penrose_check_mod_p(rat_matrix_mod_p(A, p), rat_matrix_mod_p(X, p), p)
    assert failed_conditions(report) == {name.split("-")[0]}


@st.composite
def shaped_matrices(draw, kind):
    """(kind, A): a rational A that is square, wide (m < n), tall (m > n)
    or rank-deficient (rank < min(m, n))."""
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    if kind == "deficient":
        m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        k = draw(st.integers(1, min(m, n) - 1))
        F = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
        G = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
        return kind, M(F) @ M(G)
    small, large = draw(st.integers(1, 4)), draw(st.integers(5, 6))
    m, n = {"square": (small, small), "wide": (small, large), "tall": (large, small)}[kind]
    return kind, M(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                 min_size=m, max_size=m)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("square", "wide", "tall", "deficient")).flatmap(shaped_matrices))
def test_oracle_equals_skeleton_reference(kind_and_matrix):
    # square nonsingular, full row rank, full column rank and rank-deficient:
    # the full-rank factorization must agree with the skeleton at every rank
    kind, A = kind_and_matrix
    rank = rref_rational(A)[1]
    if kind == "deficient":
        assert rank < min(A.rows, A.cols)
    else:
        assume(rank == min(A.rows, A.cols))
    assert pseudoinverse_oracle(A) == skeleton_pseudoinverse(A)


@st.composite
def compatible_pairs(draw):
    """(A, X) with X shaped like A^T: random rationals, or A with its
    pseudoinverse, an exact inverse pair when A is square and nonsingular."""
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = M(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)))
    if draw(st.booleans()):
        return A, pseudoinverse_oracle(A)
    return A, M(draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                              min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(compatible_pairs())
@example((M([[2, 0], [0, Fraction(1, 3)]]), M([[Fraction(1, 2), 0], [0, 3]])))
@example((M([[Fraction(1, 2), Fraction(1, 2)]]), M([[1], [1]])))
def test_penrose_identities_match_the_products(pair):
    A, X = pair
    report, ax_is_identity, xa_is_identity = penrose_identities(A, X)
    assert report == penrose_check(A, X)
    assert ax_is_identity == (A @ X).is_identity()
    assert xa_is_identity == (X @ A).is_identity()


@st.composite
def certificate_pairs(draw):
    """(A, X): A square, wide, tall or rank-deficient, and X its oracle, a
    one-sided inverse that is not A+ (A+ + Z with Z A = 0 for a tall A, or
    A Z = 0 for a wide one), the oracle with one entry moved, or a random
    matrix."""
    _, A = draw(st.sampled_from(("square", "wide", "tall", "deficient")).flatmap(shaped_matrices))
    m, n = A.rows, A.cols
    X = pseudoinverse_oracle(A)
    how = draw(st.sampled_from(("oracle", "one-sided", "moved", "random")))
    if how == "one-sided":
        def plus(P, Q, sign=1):
            return M([[p + sign * q for p, q in zip(prow, qrow)]
                      for prow, qrow in zip(P.to_rows(), Q.to_rows())])

        W = M(draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                            min_size=n, max_size=n)))
        if m >= n:
            Z = W @ plus(RatMatrix.identity(m), A @ X, -1)  # Z A = 0
        else:
            Z = plus(RatMatrix.identity(n), X @ A, -1) @ W  # A Z = 0
        X = plus(X, Z)
    elif how == "moved":
        rows = X.to_rows()
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] += draw(
            st.sampled_from((-1, 1, Fraction(1, 2))))
        X = M(rows)
    elif how == "random":
        X = M(draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                            min_size=n, max_size=n)))
    return A, X


@settings(max_examples=200, deadline=None)
@given(certificate_pairs())
@example((M([[1, 2]]), M([[1], [0]])))
@example((M([[1], [2]]), M([[1, 0]])))
def test_penrose_certificate_matches_the_reference(pair):
    A, X = pair
    expected = penrose_reference(A, X)
    assert penrose_identities(A, X) == expected
    assert penrose_check(A, X) == expected[0]
    p = 10007
    if A.den % p and X.den % p:
        Ap, Xp = rat_matrix_mod_p(A, p), rat_matrix_mod_p(X, p)
        assert penrose_check_mod_p(Ap, Xp, p) == penrose_reference(Ap, Xp, p)[0]


def set_pair(n, r, c):
    """The set inclusion matrix W_rc(n) and its closed-form inverse."""
    return build_incidence(n, 1, r, c).to_rat_matrix(), expand_class_matrix(class_matrix(n, 1, r, c))


def deficient_pair():
    A = M([[1, 1], [1, 1], [0, 0]])
    return A, pseudoinverse_oracle(A)


@pytest.mark.parametrize("make, expected", [
    # a square nonsingular pair: A X = I alone proves all four conditions
    (lambda: set_pair(4, 1, 3), 1),
    # tall and wide full-rank pairs: the larger product only for its symmetry
    (lambda: set_pair(4, 2, 3), 2),
    (lambda: set_pair(6, 1, 2), 2),
    # below full rank no product is an identity: both triple products form
    (deficient_pair, 4),
], ids=["square", "tall", "wide", "deficient"])
def test_certificate_forms_only_the_products_it_needs(monkeypatch, make, expected):
    A, X = make()
    p = 10007
    Ap, Xp = rat_matrix_mod_p(A, p), rat_matrix_mod_p(X, p)
    formed = []
    matmul = mpinc.linalg._matmul

    def counted(*args):
        formed.append(args)
        return matmul(*args)

    monkeypatch.setattr(mpinc.linalg, "_matmul", counted)
    assert penrose_identities(A, X)[0].all_ok
    assert len(formed) == expected
    formed.clear()
    assert penrose_check_mod_p(Ap, Xp, p).all_ok
    assert len(formed) == expected


def fano_m3():
    """M_3 of the Fano plane: 35 x 7, each block holding one 3-subset."""
    fano = parse_design(str(Path(__file__).resolve().parents[1] / "samples/fano/fano.blk"))
    return build_design_incidence(fano, 3).to_rat_matrix()


def pg32_lines_m3():
    """M_3 of the lines of PG(3,2) as a 2-(15, 3, 1) design: 455 x 35."""
    lines = [sorted(S.points) for S in enumerate_subspaces(4, 2, 2)]
    index = {P: i for i, P in enumerate(sorted(set().union(*lines)), 1)}
    blocks = tuple(sorted(tuple(sorted(index[P] for P in line)) for line in lines))
    return build_design_incidence(Design(v=15, blocks=blocks, k=3), 3).to_rat_matrix()


@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@pytest.mark.parametrize("make", [fano_m3, pg32_lines_m3], ids=["fano", "pg32-lines"])
def test_certificate_reads_symmetry_on_the_gram_side(monkeypatch, make, wide):
    # sparse pairs whose one-sided product is an identity: the larger
    # product's symmetry is read from X = A^T (X^T X) on the wide side, and
    # no product as large as the larger of A X and X A is formed
    M3 = make()
    if wide:
        M3 = M3.transpose()
    # A = (2/3) M3, so that the products are compared with scale 6, not 1
    A = RatMatrix(M3.rows, M3.cols, 3, [[2 * v for v in row] for row in M3.nums])
    X = pseudoinverse_oracle(A)
    m, n = A.rows, A.cols
    # a one-sided inverse, X + W (I - A X) when tall and X + (I - X A) W
    # when wide; here X = (3/2) M3^T, so with W nonzero at one entry only,
    # in a zero column (row) of X, the second term is W itself
    rows = [list(row) for row in X.nums]
    if wide:
        rows[next(j for j in range(n) if not any(X.nums[j]))][0] = 1
    else:
        rows[0][next(i for i in range(m) if not any(row[i] for row in X.nums))] = 1
    Y = RatMatrix(n, m, X.den, rows)
    shapes = []
    matmul = mpinc.linalg._matmul

    def recorded(a, b, ncols, *nnz):
        shapes.append((len(a), ncols))
        return matmul(a, b, ncols, *nnz)

    monkeypatch.setattr(mpinc.linalg, "_matmul", recorded)
    p = 10007
    for Z, report in ((X, (True,) * 4), (Y, (True, True, wide, not wide))):
        assert penrose_identities(A, Z)[0] == report
        assert penrose_identities(A, Z) == penrose_reference(A, Z)
        Ap, Zp = rat_matrix_mod_p(A, p), rat_matrix_mod_p(Z, p)
        assert penrose_check_mod_p(Ap, Zp, p) == penrose_reference(Ap, Zp, p)[0]
    big = max(m, n)
    assert shapes and (big, big) not in shapes


@st.composite
def int_matrices(draw):
    """A list of int rows that is dense, diagonal, a signed partial
    permutation, block-diagonal, sparse 0/1 or rank-deficient, with its
    first column zero in a leading run of rows."""
    kind = draw(st.sampled_from(
        ("dense", "diagonal", "permutation", "block", "sparse", "deficient")))
    m = draw(st.integers(1, 6))
    n = m if draw(st.booleans()) else draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    if kind == "dense":
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    elif kind == "diagonal":
        diagonal = draw(st.lists(entry, min_size=min(m, n), max_size=min(m, n)))
        rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
    elif kind == "permutation":
        perm = draw(st.permutations(range(max(m, n))))
        signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m))
        rows = [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(m)]
    elif kind == "block":
        rows = [[0] * n for _ in range(m)]
        i = j = 0
        while i < m and j < n:
            size = draw(st.integers(1, 3))
            for a in range(i, min(m, i + size)):
                for b in range(j, min(n, j + size)):
                    rows[a][b] = draw(entry)
            i, j = i + size, j + size
    elif kind == "sparse":
        rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                             min_size=m, max_size=m))
    else:
        k = draw(st.integers(0, min(m, n) - 1))
        F = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
        G = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        rows = [[sum(F[i][t] * G[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    for row in rows[:draw(st.integers(0, m))]:
        row[0] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_exchange_reads_as_the_exchanged_system(rows):
    # pivot (i, j) exchanges y_i and x_j in y = A x, so with I the pivot
    # rows and J the pivot columns, row t of the result gives s_t x_j (t =
    # i pivoted on j) or s_t y_t (t not in I) from y_I and the other x, with
    # s_t = scales[t] and the row primitive; the check runs on x = each unit
    # vector, y = that column of A
    m, n = len(rows), len(rows[0])
    reduced, pivots, scales = mpinc.linalg._exchange(rows, n)
    _, rank, ref_pivots = rref_rational(M(rows))
    I, J = [i for i, _ in pivots], [j for _, j in pivots]
    assert tuple(J) == ref_pivots
    assert len(set(I)) == rank
    assert leibniz_determinant([[rows[i][j] for j in J] for i in I]) != 0
    assert all(gcd(s, *row) == 1 for s, row in zip(scales, reduced))
    row_of, col_of = {j: i for i, j in pivots}, dict(pivots)
    for k in range(n):
        x, y = [int(j == k) for j in range(n)], [row[k] for row in rows]
        known = [y[row_of[j]] if j in row_of else x[j] for j in range(n)]
        for t, row in enumerate(reduced):
            lhs = x[col_of[t]] if t in col_of else y[t]
            assert scales[t] * lhs == sum(map(mul, row, known))
    if m != n:
        return
    if rank < n:
        with pytest.raises(SingularError):
            mpinc.linalg._inverse(rows)
        return
    adj, d = mpinc.linalg._inverse(rows)
    augmented, _, _ = rref_rational(M([row + [int(i == j) for j in range(n)]
                                       for i, row in enumerate(rows)]))
    inverse = M([list(augmented.row(i))[n:] for i in range(n)])
    # d is the least common denominator of the inverse, a divisor of det
    assert RatMatrix(n, n, d, adj) == inverse
    assert d == inverse.den
    assert leibniz_determinant(rows) % d == 0


def test_inverse_of_a_gram_has_the_least_denominator():
    # the Gram A A^T of set (8; 2, 4) is 28 x 28 and its determinant has
    # 93 bits, but its inverse needs only the denominator 180
    A = build_incidence(8, 1, 2, 4).to_rat_matrix().nums
    gram = mpinc.linalg._matmul(A, mpinc.linalg._transpose(A, 70), 28)
    adj, d = mpinc.linalg._inverse(gram)
    assert (len(adj), d) == (28, 180)
    assert RatMatrix(28, 28, d, adj) @ RatMatrix(28, 28, 1, gram) == RatMatrix.identity(28)


@st.composite
def product_factors(draw):
    """(a, b, ncols): int factors m x k and k x ncols, any size 0 to 5,
    rows as lists or as tuples. Each row is drawn whole, all zero, or with
    one nonzero, and a column of either factor may be zeroed; entries are
    mostly 0, else 1, -1 or any int up to 2^70."""
    m, k, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.sampled_from((1, -1)), st.integers(-2**70, 2**70))

    def factor(rows, cols):
        mat = []
        for _ in range(rows):
            shape = draw(st.sampled_from(("whole", "zero", "one")))
            row = [0] * cols
            if shape == "whole":
                row = draw(st.lists(entry, min_size=cols, max_size=cols))
            elif shape == "one" and cols:
                row[draw(st.integers(0, cols - 1))] = draw(entry.filter(bool))
            mat.append(row)
        if cols and draw(st.booleans()):
            j = draw(st.integers(0, cols - 1))
            for row in mat:
                row[j] = 0
        return mat

    a, b = factor(m, k), factor(k, ncols)
    if draw(st.booleans()):
        a, b = [tuple(row) for row in a], [tuple(row) for row in b]
    return a, b, ncols


def plain_product(a, b, ncols):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(ncols)]
            for i in range(len(a))]


@settings(max_examples=300, deadline=None)
@given(product_factors())
@example(([[0, 0], [3, 0]], [[1, 2], [0, 0]], 2))
@example(([], [[1, 2]], 2))
@example(([[], []], [], 3))
def test_products_equal_the_triple_loop(factors):
    # each product is plain a @ b on rows that are empty, hold one nonzero
    # or any ints, and no output row is one of b's rows, so mutating every
    # output row leaves b as it was
    a, b, ncols = factors
    m, inner = len(a), len(b)
    want = plain_product(a, b, ncols)
    before = [list(row) for row in b]
    transpose, row_sparse = mpinc.linalg._transpose, mpinc.linalg._row_sparse_matmul
    products = (
        mpinc.linalg._matmul(a, b, ncols),
        row_sparse(a, b, ncols),
        transpose(row_sparse(transpose(b, ncols), transpose(a, inner), m), m),
    )
    for out in products:
        assert out == want
        assert not {id(row) for row in out} & {id(row) for row in b}
        for row in out:
            row[:] = [7] * (ncols + 1)
        assert [list(row) for row in b] == before


def test_an_identity_factor_is_scanned_where_it_stands(monkeypatch):
    # the oracle of the PG(3,2) lines' M_3 (455 x 35, Gram I) multiplies
    # adj = I by A^T, 35 x 455 with one nonzero per row: three transposes
    # would cost more than scanning the 35 nonzeros of I directly
    identity = [[int(i == j) for j in range(35)] for i in range(35)]
    sparse = [[int(j == 13 * i) for j in range(455)] for i in range(35)]
    calls = []
    transpose = mpinc.linalg._transpose

    def counted(*args):
        calls.append(args)
        return transpose(*args)

    monkeypatch.setattr(mpinc.linalg, "_transpose", counted)
    assert mpinc.linalg._matmul(identity, sparse, 455) == sparse
    assert calls == []
    # the oracle transposes A once, for A^T, and forms both products directly
    A = pg32_lines_m3()
    assert pseudoinverse_oracle(A) == A.transpose()
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_incidence_matrix_densifies_to_its_indicator_rows(m, n, data):
    flags = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                               min_size=m, max_size=m))
    inc = IncidenceMatrix(
        rows=m, cols=n,
        row_support=tuple(tuple(j for j, bit in enumerate(row) if bit) for row in flags),
    )
    A = inc.to_rat_matrix()
    assert (A.rows, A.cols, A.den) == (m, n, 1)
    assert A.nums == tuple(tuple(map(int, row)) for row in flags)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_penrose_mod_p_agrees_with_exact_check(rnd):
    # entries in [0, 2] and dims <= 4 keep every product entry below 4^2 * 2^3 = 128,
    # so over GF(131) no equality can hold or fail only by wrapping around
    p = 131
    rows, cols = rnd.randint(1, 4), rnd.randint(1, 4)
    if rnd.random() < 0.5:
        # a partial permutation matrix, whose pseudoinverse is its transpose
        A = RatMatrix.zeros(rows, cols).to_rows()
        for i, j in zip(rnd.sample(range(rows), rows), rnd.sample(range(cols), cols)):
            if rnd.random() < 0.7:
                A[i][j] = Fraction(1)
        A = M(A)
        X = A.transpose().to_rows()
        if rnd.random() < 0.5:
            X[rnd.randrange(cols)][rnd.randrange(rows)] += 1
        X = M(X)
    else:
        A = M([[rnd.randint(0, 2) for _ in range(cols)] for _ in range(rows)])
        X = M([[rnd.randint(0, 2) for _ in range(rows)] for _ in range(cols)])
    assert penrose_check_mod_p(A, X, p) == penrose_check(A, X)


def test_penrose_mod_p_holds_for_reduced_oracle(rng):
    for _ in range(15):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = M([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        X = pseudoinverse_oracle(A)
        for p in (5, 7, 11, 13):
            if all(x.denominator % p for x in X.entries):
                Ap = rat_matrix_mod_p(A, p)
                assert penrose_check_mod_p(Ap, rat_matrix_mod_p(X, p), p).all_ok


def test_linalg_imports_no_family_module():
    tree = ast.parse(Path(mpinc.linalg.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"subsets", "subspaces", "designs"}


# ---------------------------------------------------------------------------
# canonical form: however a RatMatrix is made, it is the one its entries give

def assert_canonical(X, rows):
    """X holds the Fraction rows `rows` in canonical form: den is the lcm of
    their reduced denominators, nums is den times each entry, and X equals,
    and hashes like, the matrix the constructor builds from a negative
    multiple of its own fields."""
    flat = [Fraction(x) for row in rows for x in row]
    assert (X.rows, len(X.nums)) == (len(rows), len(rows))
    assert X.den == lcm(*(x.denominator for x in flat))
    assert X.nums == tuple(tuple(int(x * X.den) for x in row) for row in rows)
    assert all(type(v) is int for row in X.nums for v in row)
    assert X.to_rows() == [list(map(Fraction, row)) for row in rows]
    reference = RatMatrix(X.rows, X.cols, -6 * X.den, [[-6 * v for v in row] for row in X.nums])
    assert X == reference and hash(X) == hash(reference)


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def fraction_rows(draw, rows=st.integers(0, 4), cols=st.integers(0, 4)):
    """(cols, rows): a rows x cols list of Fraction rows."""
    m, n = draw(rows), draw(cols)
    return n, draw(st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=m, max_size=m))


def rat(cols, rows):
    return rat_matrix(len(rows), cols, [x for row in rows for x in row])


@settings(max_examples=60, deadline=None)
@given(fraction_rows())
def test_constructor_is_canonical(shape):
    cols, rows = shape
    A = rat(cols, rows)
    assert A.cols == cols
    assert_canonical(A, rows)
    if rows:
        assert_canonical(RatMatrix.from_rows(rows), rows)


@settings(max_examples=50, deadline=None)
@given(fraction_rows(), st.integers(0, 4), st.data())
def test_product_and_transpose_are_canonical(shape, width, data):
    inner, rows = shape
    A = rat(inner, rows)
    other = data.draw(st.lists(st.lists(fractions, min_size=width, max_size=width),
                               min_size=inner, max_size=inner))
    B = rat(width, other)
    product = [[sum((row[k] * other[k][j] for k in range(inner)), Fraction(0))
                for j in range(width)] for row in rows]
    assert_canonical(A @ B, product)
    assert_canonical(A.transpose(), [list(col) for col in zip(*rows)] if rows else [[]] * inner)


@settings(max_examples=60, deadline=None)
@given(fraction_rows(rows=st.integers(1, 4), cols=st.integers(1, 4)))
def test_oracle_is_canonical(shape):
    cols, rows = shape
    A = rat(cols, rows)
    assert_canonical(pseudoinverse_oracle(A), skeleton_pseudoinverse(A).to_rows())


def meet_dim(q, R, C):
    return len(set(R) & set(C)) if q == 1 else intersection_dim(R, C)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(0, 5), st.data())
def test_expand_class_matrix_is_canonical(q, n, data):
    # n < r + c included: classes i < r + c - n never occur, so den may be
    # below the lcm of all r + 1 class values' denominators
    n = min(n, 4) if q == 2 else n
    r = data.draw(st.integers(0, n))
    c = data.draw(st.integers(r, n))
    cm = class_matrix(n, q, r, c)
    rows = [[cm.values[meet_dim(q, R, C)] for R in labels(n, q, r)] for C in labels(n, q, c)]
    assert_canonical(expand_class_matrix(cm), rows)


@settings(max_examples=80, deadline=None)
@given(fraction_rows(), st.sampled_from((2, 3, 5, 7)))
def test_reduction_mod_p_is_canonical(shape, p):
    cols, rows = shape
    A = rat(cols, rows)
    if any(x.denominator % p == 0 for row in rows for x in row):
        with pytest.raises(NotReducibleError):
            rat_matrix_mod_p(A, p)
        return
    assert_canonical(rat_matrix_mod_p(A, p), [[rat_mod_p(x, p) for x in row] for row in rows])


@settings(max_examples=80, deadline=None)
@given(fraction_rows(rows=st.integers(1, 4), cols=st.integers(1, 4)))
def test_csv_round_trip_is_canonical(shape):
    cols, rows = shape
    assert_canonical(read_csv("".join(write_csv(rat(cols, rows)))), rows)
