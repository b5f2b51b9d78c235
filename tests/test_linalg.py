import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpinc.linalg
from mpinc.errors import ParameterError, ShapeError
from mpinc.linalg import (
    IncidenceMatrix,
    RatMatrix,
    first_difference,
    penrose_check,
    penrose_check_mod_p,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from reference import rref_rational


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


# (A, X) pairs where exactly one Penrose condition fails
ONE_CONDITION_FAILS = {
    "cond1": (M([[1, 2], [0, 0]]), RatMatrix.zeros(2, 2)),
    "cond2": (RatMatrix.zeros(2, 2), M([[1, 0], [Fraction(1, 3), 1]])),
    "cond3": (M([[1], [1]]), M([[1, 0]])),
    "cond4": (M([[1, 1]]), M([[1], [0]])),
}


@pytest.mark.parametrize("name", sorted(ONE_CONDITION_FAILS))
def test_penrose_check_flags_exactly_one_condition(name):
    A, X = ONE_CONDITION_FAILS[name]
    report = penrose_check(A, X)
    failed = {c for c in ("cond1", "cond2", "cond3", "cond4") if not getattr(report, c)}
    assert failed == {name}
    assert penrose_check(A, pseudoinverse_oracle(A)).all_ok


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
