import pytest

from mpinc.errors import InvalidFieldError
from mpinc.gf import GFMatrix, build_field, factor_prime_power, gf_add, gf_mul, render_element
from reference import at, element, from_rows, gf_inv, gf_neg, rref_gf, to_rows

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
    with pytest.raises(InvalidFieldError, match="is not a prime power"):
        factor_prime_power((10**9 + 7) * (10**9 + 9))
    for q in (-4, 0, 1):
        with pytest.raises(InvalidFieldError):
            factor_prime_power(q)


def test_element_ordering_encodes_integers():
    f = build_field(9)
    assert f.elements[0] == (0, 0)
    assert f.elements[1] == (1, 0)
    assert f.elements[3] == (0, 1)  # index = c0 + 3*c1
    assert f.elements[5] == (2, 1)


def test_gf_mul_examples():
    f4 = build_field(4)
    x = element(f4, (0, 1))
    assert gf_mul(x, x, f4) == (1, 1)  # x^2 = x + 1
    f5 = build_field(5)
    assert gf_mul(element(f5, 3), element(f5, 4), f5) == (2,)
    for q in ALL_Q:
        f = build_field(q)
        for a in f.elements:
            assert gf_mul(a, f.one, f) == a


def test_gf_inv_examples():
    f5 = build_field(5)
    assert gf_inv(element(f5, 2), f5) == (3,)
    f4 = build_field(4)
    assert gf_inv(element(f4, (0, 1)), f4) == (1, 1)
    with pytest.raises(ZeroDivisionError):
        gf_inv(f4.zero, f4)


def test_field_axioms_exhaustive():
    for q in ALL_Q:
        f = build_field(q)
        els = f.elements
        for a in els:
            assert gf_add(a, gf_neg(a, f), f) == f.zero
            if a != f.zero:
                assert gf_mul(a, gf_inv(a, f), f) == f.one
                assert gf_inv(gf_inv(a, f), f) == a
        for a in els:
            for b in els:
                assert gf_add(a, b, f) == gf_add(b, a, f)
                assert gf_mul(a, b, f) == gf_mul(b, a, f)
                for c in els:
                    assert gf_mul(gf_mul(a, b, f), c, f) == gf_mul(a, gf_mul(b, c, f), f)
                    assert gf_mul(a, gf_add(b, c, f), f) == gf_add(
                        gf_mul(a, b, f), gf_mul(a, c, f), f
                    )


def test_render_element():
    f5 = build_field(5)
    assert render_element(element(f5, 3), f5) == "3"
    f4 = build_field(4)
    assert render_element(element(f4, (1, 1)), f4) == "[1,1]"


def test_rref_duplicate_rows():
    f = build_field(2)
    A = from_rows([[1, 1], [1, 1]], f)
    R, rank, pivots = rref_gf(A, f)
    assert to_rows(R) == [[(1,), (1,)]]
    assert rank == 1
    assert pivots == (0,)


def test_rref_permutation():
    f = build_field(2)
    A = from_rows([[0, 1], [1, 0]], f)
    R, rank, pivots = rref_gf(A, f)
    assert to_rows(R) == [[(1,), (0,)], [(0,), (1,)]]
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_gf3_singular_case():
    # det([[1,2],[2,1]]) = -3 = 0 over GF(3): rank 1
    f = build_field(3)
    A = from_rows([[1, 2], [2, 1]], f)
    R, rank, pivots = rref_gf(A, f)
    assert rank == 1
    assert pivots == (0,)
    assert to_rows(R) == [[(1,), (2,)]]


def _random_gf_matrix(rng, f, rows, cols):
    return GFMatrix(
        rows, cols,
        tuple(rng.choice(f.elements) for _ in range(rows * cols)),
    )


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
            At = GFMatrix(
                cols, rows,
                tuple(at(A, i, j) for j in range(cols) for i in range(rows)),
            )
            assert rref_gf(A, f)[1] == rref_gf(At, f)[1]
