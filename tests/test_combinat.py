from fractions import Fraction

import pytest

from mpinc.combinat import (
    binomial,
    gauss_binomial_formula_check,
    gaussian_binomial,
    int_polynomial,
    poly_eval,
    q_integer,
    q_ruiz_sum,
    ruiz_sum,
)
from mpinc.errors import ParameterError


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(8, 8) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(4, -1) == 0
    assert binomial(-2, -2) == 0


def test_q_integer_values():
    assert q_integer(3, 2) == 7
    assert q_integer(0, 5) == 0
    assert q_integer(4, 3) == 40
    assert q_integer(1, 9) == 1


def test_q_integer_rejects_bad_args():
    with pytest.raises(ParameterError):
        q_integer(-1, 2)
    with pytest.raises(ParameterError):
        q_integer(3, 1)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(-1, 0, 2) == 0
    assert gaussian_binomial(5, 0, 7) == 1


def test_gaussian_binomial_rejects_q1():
    with pytest.raises(ParameterError):
        gaussian_binomial(4, 2, 1)


def test_gaussian_binomial_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for m_ in range(n + 1):
                assert gaussian_binomial(n, m_, q) == gaussian_binomial(n, n - m_, q)


def test_gaussian_binomial_counts_subspaces():
    # independent count: number of m-dimensional subspaces of GF(q)^n equals
    # prod (q^n - q^j) / prod (q^m - q^j)
    for q in (2, 3):
        for n in range(6):
            for m_ in range(n + 1):
                num = 1
                den = 1
                for j in range(m_):
                    num *= q**n - q**j
                    den *= q**m_ - q**j
                assert gaussian_binomial(n, m_, q) == num // den


def test_int_polynomial_normalizes():
    assert int_polynomial((1, 2, 0, 0)) == (1, 2)
    assert int_polynomial(()) == ()
    # a rational equal to an integer reads as that int
    assert int_polynomial((Fraction(4), 2, Fraction(0))) == (4, 2)


def test_poly_eval():
    assert poly_eval((1, 2, 3), 2) == 1 + 4 + 12
    assert poly_eval((), 5) == 0


def test_ruiz_sum_vanishes_below_degree():
    assert ruiz_sum(3, (0, 0, 1)) == 0  # x^2, degree 2 < 3
    assert ruiz_sum(1, (1,)) == 0


def test_ruiz_sum_nonzero_at_degree_n():
    # n=2, p(x)=x^2: 0 - 2*1 + 4 = 2
    assert ruiz_sum(2, (0, 0, 1)) == 2


def test_ruiz_sum_random_low_degree(rng):
    for _ in range(60):
        n = rng.randint(1, 12)
        deg = rng.randint(0, n - 1)
        p = [rng.randint(-9, 9) for _ in range(deg + 1)]
        assert ruiz_sum(n, p) == 0


def test_q_ruiz_sum_vanishes():
    assert q_ruiz_sum(2, 0, 2) == 0
    assert q_ruiz_sum(3, 2, 3) == 0
    for q in (2, 3, 9):
        for n in range(1, 7):
            for m_ in range(n):
                assert q_ruiz_sum(n, m_, q) == 0


def test_q_ruiz_sum_at_degree_n():
    assert q_ruiz_sum(1, 1, 2) == -1


def test_sums_reject_bad_args():
    with pytest.raises(ParameterError, match=r"^ruiz_sum needs n >= 1, got 0$"):
        ruiz_sum(0, (1,))
    with pytest.raises(ParameterError, match=r"^q_ruiz_sum needs n >= 1, got 0$"):
        q_ruiz_sum(0, 1, 2)
    with pytest.raises(ParameterError, match=r"^q_ruiz_sum needs m >= 0, got -1$"):
        q_ruiz_sum(2, -1, 2)
    with pytest.raises(ParameterError, match=r"^need n >= 1, got 0$"):
        gauss_binomial_formula_check(0, 1, 1, 2)
    # a coefficient that is not an integer is refused, not truncated
    with pytest.raises(
        ParameterError, match=r"^polynomial coefficient Fraction\(1, 2\) is not an integer$"
    ):
        ruiz_sum(1, (0, Fraction(1, 2)))
    with pytest.raises(ParameterError, match=r"^polynomial coefficient 2\.7 is not an integer$"):
        int_polynomial((2.7, Fraction(7, 2)))


def test_gauss_binomial_formula_examples():
    assert gauss_binomial_formula_check(1, 1, 1, 2)
    assert gauss_binomial_formula_check(2, 1, 1, 2)
    assert gauss_binomial_formula_check(3, Fraction(2, 3), Fraction(-1, 5), 3)


def test_gauss_binomial_formula_random(rng):
    for _ in range(30):
        n = rng.randint(1, 8)
        q = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert gauss_binomial_formula_check(n, x, a, q)
