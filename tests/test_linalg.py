import ast
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mpinc.linalg
from mpinc.errors import NotReducibleError, ParameterError, ShapeError
from mpinc.formats import parse_csv, write_csv
from mpinc.linalg import (
    IncidenceMatrix,
    RatMatrix,
    first_difference,
    penrose_check,
    penrose_check_mod_p,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from mpinc.rationals import rat_mod_p
from mpinc.subspaces import class_matrix, expand_class_matrix, intersection_dim, labels
from reference import rref_rational, skeleton_pseudoinverse


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
        RatMatrix(2, 2, (Fraction(1),) * 3)
    with pytest.raises(ShapeError):
        M([[1, 2], [3]])


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
    and hashes like, the matrix the constructor builds from the Fractions."""
    flat = [Fraction(x) for row in rows for x in row]
    assert (X.rows, len(X.nums)) == (len(rows), len(rows))
    assert X.den == lcm(*(x.denominator for x in flat))
    assert X.nums == tuple(tuple(int(x * X.den) for x in row) for row in rows)
    assert all(type(v) is int for row in X.nums for v in row)
    assert X.to_rows() == [list(map(Fraction, row)) for row in rows]
    reference = RatMatrix(X.rows, X.cols, flat)
    assert X == reference and hash(X) == hash(reference)


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def fraction_rows(draw, rows=st.integers(0, 4), cols=st.integers(0, 4)):
    """(cols, rows): a rows x cols list of Fraction rows."""
    m, n = draw(rows), draw(cols)
    return n, draw(st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=m, max_size=m))


def rat(cols, rows):
    return RatMatrix(len(rows), cols, tuple(x for row in rows for x in row))


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
    assert_canonical(parse_csv(write_csv(rat(cols, rows))), rows)
