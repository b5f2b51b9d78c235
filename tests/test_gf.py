from fractions import Fraction

import pytest

from mpinc.errors import InvalidFieldError
from mpinc.gf import build_field, factor_prime_power, render_element
from reference import element, from_rows, gf_inv, gf_neg, rref_gf, to_rows

ALL_Q = (2, 3, 4, 5, 7, 8, 9)


def test_build_field_prime():
    f = build_field(5)
    assert (f.p, f.e) == (5, 1)
    assert f.modulus == (0, 1)  # x


def test_build_field_gf4_modulus():
    f = build_field(4)
    assert (f.p, f.e) == (2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1


def test_build_field_gf8_modulus():
    # lexicographically least monic irreducible cubic over GF(2),
    # low-degree-first comparison: (1,0,1,1) = 1 + x^2 + x^3
    f = build_field(8)
    assert f.modulus == (1, 0, 1, 1)


def test_build_field_gf9_modulus():
    f = build_field(9)
    assert f.modulus == (1, 0, 1)  # x^2 + 1


def test_build_field_rejects_non_prime_power():
    with pytest.raises(InvalidFieldError):
        build_field(6)
    with pytest.raises(InvalidFieldError):
        build_field(12)
    with pytest.raises(InvalidFieldError):
        build_field(1)
    # a q that is not an int is refused, not read through int methods
    for q in (2.0, Fraction(4)):
        with pytest.raises(InvalidFieldError, match=r"^(2\.0|4) is not a prime power$"):
            build_field(q)


def test_factor_prime_power_matches_trial_division():
    def by_trial_division(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        return (p, e) if q == 1 else None

    for q in range(2, 5000):
        try:
            got = factor_prime_power(q)
        except InvalidFieldError:
            got = None
        assert got == by_trial_division(q), q


def test_factor_prime_power_large():
    assert factor_prime_power(2**31 - 1) == (2**31 - 1, 1)
    assert factor_prime_power(3**40) == (3, 40)
    assert factor_prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert factor_prime_power(1000003**5) == (1000003, 5)
    # the largest exact root decides: 2021 = 43 * 47, 10, and an even q
    for q in ((10**9 + 7) * (10**9 + 9), 2021**8, 10**30, 2 * 3**100):
        with pytest.raises(InvalidFieldError, match="is not a prime power"):
            factor_prime_power(q)
    for q in (-4, 0, 1):
        with pytest.raises(InvalidFieldError):
            factor_prime_power(q)


def test_element_ordering_encodes_integers():
    # element k has the base-p digits of k as coefficients, c0 first
    f = build_field(9)
    for k, coefs in [(0, (0, 0)), (1, (1, 0)), (3, (0, 1)), (5, (2, 1))]:
        assert element(f, coefs) == k  # k = c0 + 3*c1
        assert render_element(k, f) == f"[{coefs[0]},{coefs[1]}]"
    assert [render_element(k, f) for k in range(9)] == [
        f"[{c0},{c1}]" for c1 in range(3) for c0 in range(3)
    ]


def test_gf_mul_examples():
    f4 = build_field(4)
    x = element(f4, (0, 1))
    assert f4.mul[x][x] == element(f4, (1, 1)) == 3  # x^2 = x + 1
    f5 = build_field(5)
    assert f5.mul[element(f5, 3)][element(f5, 4)] == 2
    for q in ALL_Q:
        f = build_field(q)
        for a in range(q):
            assert f.mul[a][1] == a


def test_gf_inv_examples():
    f5 = build_field(5)
    assert gf_inv(element(f5, 2), f5) == 3
    f4 = build_field(4)
    assert gf_inv(element(f4, (0, 1)), f4) == element(f4, (1, 1))
    with pytest.raises(ZeroDivisionError):
        gf_inv(0, f4)


def test_field_axioms_exhaustive():
    for q in ALL_Q:
        f = build_field(q)
        add, mul = f.add, f.mul
        els = range(q)
        # the tables are q x q tuples of elements
        for table in (add, mul):
            assert type(table) is tuple and len(table) == q
            for row in table:
                assert type(row) is tuple and len(row) == q
                assert all(type(x) is int and 0 <= x < q for x in row)
        for a in els:
            assert add[a][gf_neg(a, f)] == 0
            if a != 0:
                assert mul[a][gf_inv(a, f)] == 1
                assert gf_inv(gf_inv(a, f), f) == a
        for a in els:
            for b in els:
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in els:
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_render_element():
    f5 = build_field(5)
    assert render_element(element(f5, 3), f5) == "3"
    f4 = build_field(4)
    assert render_element(element(f4, (1, 1)), f4) == "[1,1]"


def test_rref_duplicate_rows():
    f = build_field(2)
    A = from_rows([[1, 1], [1, 1]], f)
    R, rank, pivots = rref_gf(A, f)
    assert to_rows(R) == [[1, 1]]
    assert rank == 1
    assert pivots == (0,)


def test_rref_permutation():
    f = build_field(2)
    A = from_rows([[0, 1], [1, 0]], f)
    R, rank, pivots = rref_gf(A, f)
    assert to_rows(R) == [[1, 0], [0, 1]]
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_gf3_singular_case():
    # det([[1,2],[2,1]]) = -3 = 0 over GF(3): rank 1
    f = build_field(3)
    A = from_rows([[1, 2], [2, 1]], f)
    R, rank, pivots = rref_gf(A, f)
    assert rank == 1
    assert pivots == (0,)
    assert to_rows(R) == [[1, 2]]


def _random_gf_matrix(rng, f, rows, cols):
    return tuple(tuple(rng.choice(range(f.q)) for _ in range(cols)) for _ in range(rows))


def test_rref_idempotent(rng):
    for q in (2, 3, 4, 5):
        f = build_field(q)
        for _ in range(25):
            A = _random_gf_matrix(rng, f, rng.randint(1, 5), rng.randint(1, 5))
            R, rank, pivots = rref_gf(A, f)
            R2, rank2, pivots2 = rref_gf(R, f)
            assert (R2, rank2, pivots2) == (R, rank, pivots)


def test_rank_equals_transpose_rank(rng):
    for q in (2, 3, 4):
        f = build_field(q)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = _random_gf_matrix(rng, f, rows, cols)
            At = tuple(zip(*A))
            assert rref_gf(A, f)[1] == rref_gf(At, f)[1]
