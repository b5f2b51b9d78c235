from fractions import Fraction

import pytest

from mpinc.errors import ParameterError
from mpinc.linalg import RatMatrix, penrose_check, pseudoinverse_oracle
from mpinc import subsets
from mpinc.combinat import all_subsets, binomial, gaussian_binomial
from mpinc.subspaces import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    expand_class_matrix,
    mpinv_class_values,
)
from reference import subset_rank


def test_subset_rank_examples():
    assert subset_rank((1, 2), 4, 2) == 0
    assert subset_rank((3, 4), 4, 2) == 5
    assert subset_rank((1, 2, 3), 3, 3) == 0
    assert subset_rank((), 5, 0) == 0


def test_subset_rank_validates():
    with pytest.raises(ParameterError):
        subset_rank((2, 1), 4, 2)
    with pytest.raises(ParameterError):
        subset_rank((1, 5), 4, 2)
    with pytest.raises(ParameterError):
        subset_rank((1,), 4, 2)
    with pytest.raises(ParameterError):
        subset_rank((0, 1), 4, 2)
    with pytest.raises(ParameterError, match=r"^need 0 <= r <= n, got r=4, n=3$"):
        all_subsets(3, 4)


def test_rank_unrank_inverse_exhaustive():
    # all_subsets lists every r-subset once, in colex rank order
    for n in range(0, 9):
        for r in range(0, n + 1):
            ranks = [subset_rank(S, n, r) for S in all_subsets(n, r)]
            assert ranks == list(range(binomial(n, r)))


def test_all_subsets_order_is_colex():
    assert all_subsets(4, 2) == (
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    )


def test_all_subsets_is_cached_and_stays_colex():
    # a repeated call returns the one tuple made for (n, r), equal to a
    # fresh listing, and the colex tests read the same on a warm cache
    first = all_subsets(6, 3)
    assert all_subsets(6, 3) is first
    assert type(first) is tuple and all(type(S) is tuple for S in first)
    assert first == all_subsets.__wrapped__(6, 3)
    for n in range(0, 9):
        for r in range(0, n + 1):
            all_subsets(n, r)
    test_all_subsets_order_is_colex()
    test_rank_unrank_inverse_exhaustive()
    with pytest.raises(ParameterError, match=r"^need 0 <= r <= n, got r=4, n=3$"):
        all_subsets(3, 4)


def test_incidence_r_equals_c_is_identity():
    assert build_incidence(2, 1, 1, 1).to_rat_matrix() == RatMatrix.identity(2)
    assert build_incidence(4, 1, 2, 2).to_rat_matrix() == RatMatrix.identity(6)


def test_incidence_row_col_sums():
    for (n, r, c) in [(3, 1, 2), (5, 2, 3), (6, 1, 4), (4, 0, 2)]:
        inc = build_incidence(n, 1, r, c)
        # rows are r-subsets, columns are c-subsets
        assert inc.row_sums() == [binomial(n - r, c - r)] * inc.rows
        assert inc.col_sums() == [binomial(c, r)] * inc.cols


def test_incidence_entry_is_containment():
    for n in range(7):
        for r in range(n + 1):
            for c in range(r, n + 1):
                cols = all_subsets(n, c)
                assert build_incidence(n, 1, r, c).row_support == tuple(
                    tuple(j for j, C in enumerate(cols) if set(R) <= set(C))
                    for R in all_subsets(n, r)
                )


def test_class_values_4_1_2():
    cm = class_matrix(4, 1, 1, 2)
    assert cm.values == (Fraction(-1, 6), Fraction(1, 3))


def test_class_values_5_2_2():
    cm = class_matrix(5, 1, 2, 2)
    assert cm.values == (0, 0, 1)


def test_class_values_r_zero():
    cm = class_matrix(3, 1, 0, 2)
    # single class i=0, uniform value 1/binomial(3,2)
    assert cm.values == (Fraction(1, 3),)


def test_class_values_small_n_padded():
    # n < r+c pads the ambient size up to r+c
    assert mpinv_class_values(2, 1, 1, 2) == mpinv_class_values(3, 1, 1, 2)


def test_class_matrix_validates():
    with pytest.raises(ParameterError):
        class_matrix(4, 1, 3, 2)
    with pytest.raises(ParameterError):
        class_matrix(4, 1, -1, 2)


def test_expand_shape_and_entries():
    cm = class_matrix(4, 1, 1, 2)
    X = expand_class_matrix(cm)
    assert (X.rows, X.cols) == (6, 4)
    rows = all_subsets(4, 2)
    cols = all_subsets(4, 1)
    for i, C in enumerate(rows):
        for j, R in enumerate(cols):
            want = cm.values[len(set(C) & set(R))]
            assert X.at(i, j) == want


def test_expand_matches_oracle_small():
    for n in range(0, 6):
        for c in range(0, n + 1):
            for r in range(0, c + 1):
                A = build_incidence(n, 1, r, c).to_rat_matrix()
                X = expand_class_matrix(class_matrix(n, 1, r, c))
                if not any(A.entries):
                    assert X == RatMatrix.zeros(A.cols, A.rows)
                    continue
                assert X == pseudoinverse_oracle(A)
                assert penrose_check(A, X).all_ok


def test_expand_matches_oracle_past_the_sweep():
    # set (10; 3, 4), 120 x 210, is the first set pair past the n <= 8 sweep
    A = build_incidence(10, 1, 3, 4).to_rat_matrix()
    assert (A.rows, A.cols) == (120, 210)
    assert expand_class_matrix(class_matrix(10, 1, 3, 4)) == pseudoinverse_oracle(A)


def test_regime_identities_small():
    for (n, r, c) in [(6, 2, 3), (5, 2, 3), (4, 1, 3), (4, 2, 3), (3, 1, 2)]:
        A = build_incidence(n, 1, r, c).to_rat_matrix()
        X = expand_class_matrix(class_matrix(n, 1, r, c))
        if n >= r + c:
            assert A @ X == RatMatrix.identity(A.rows)
        if n <= r + c:
            assert X @ A == RatMatrix.identity(A.cols)


def test_char_p_admissible_examples():
    assert char_p_obstruction(4, 1, 1, 2, 5) is None
    assert char_p_obstruction(4, 1, 1, 2, 3) is not None
    # every prime beyond the largest binomial argument is admissible
    assert char_p_obstruction(6, 1, 2, 3, 11) is None


def test_char_p_obstruction_names_a_factor():
    msg = char_p_obstruction(4, 1, 1, 2, 3)
    assert msg == "binomial(3,1) = 3"
    assert char_p_obstruction(4, 1, 1, 2, 5) is None
    # a p that is not prime names no field, so there is no verdict to give
    for p in (0, 1, -3, 4):
        with pytest.raises(ParameterError, match="is not prime"):
            char_p_obstruction(4, 1, 1, 2, p)


def test_char_p_matches_direct_divisibility():
    # the first of [N-r, c-r]_q, [N-c, 0]_q, ..., [N-c, r]_q and q that p
    # divides, named as the CLI reports it
    for q in (1, 2, 3, 4):
        for n in range(0, 7):
            for c in range(0, n + 1):
                for r in range(0, c + 1):
                    N = max(n, r + c)
                    pairs = [(N - r, c - r)] + [(N - c, i) for i in range(r + 1)]
                    facs = [
                        (f"binomial({a},{b})", binomial(a, b)) if q == 1
                        else (f"gaussian_binomial({a},{b};q={q})", gaussian_binomial(a, b, q))
                        for a, b in pairs
                    ] + [("q", q)]
                    for p in (2, 3, 5, 7, 11, 13):
                        want = next((f"{name} = {f}" for name, f in facs if f % p == 0), None)
                        assert char_p_obstruction(n, q, r, c, p) == want


def test_replay_aliases_are_the_q1_family():
    from mpinc import subspaces

    assert subsets.build_set_incidence(5, 2, 3) == build_incidence(5, 1, 2, 3)
    assert subsets.set_class_matrix(5, 2, 3) == class_matrix(5, 1, 2, 3)
    assert subsets.expand_class_matrix is expand_class_matrix
    assert subspaces.build_subspace_incidence is build_incidence
    assert subspaces.subspace_class_matrix is class_matrix
    assert subspaces.expand_qclass_matrix is expand_class_matrix
