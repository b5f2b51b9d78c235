"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single CRITERION N: PASS/FAIL
line (visible with -s, or in captured output on failure). Everything is exact
equality; there are no tolerances anywhere.
"""

import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mpinc.combinat import (
    gauss_binomial_formula_check,
    gaussian_binomial,
    int_polynomial,
    q_ruiz_sum,
    ruiz_sum,
)
from mpinc.designs import (
    build_design_incidence,
    m1_mpinv_closed_form,
    parse_design,
    validated_design,
)
from mpinc.linalg import (
    RatMatrix,
    penrose_check,
    penrose_check_mod_p,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from mpinc.subspaces import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    count_contained_with_intersection,
    count_containing_with_intersection,
    enumerate_subspaces,
    expand_class_matrix,
    intersection_dim,
)

ROOT = Path(__file__).resolve().parents[1]
FANO_DIR = ROOT / "samples" / "fano"
SAMPLE_DESIGNS = [
    ROOT / "samples" / "fano" / "fano.blk",
    ROOT / "samples" / "pairs" / "pairs42.blk",
    ROOT / "samples" / "fano_complement" / "fano_complement.blk",
]

Q_SWEEP_LIMITS = [(2, 5), (3, 4), (4, 3), (5, 3)]


def _report(n, ok):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def set_sweep():
    """(pairs, mismatches, elapsed) over every 0 <= r <= c <= n <= 8."""
    t0 = time.perf_counter()
    pairs = {}
    mismatches = []
    for n in range(0, 9):
        for c in range(0, n + 1):
            for r in range(0, c + 1):
                A = build_incidence(n, 1, r, c).to_rat_matrix()
                X = expand_class_matrix(class_matrix(n, 1, r, c))
                if X != pseudoinverse_oracle(A):
                    mismatches.append((n, r, c))
                pairs[(n, r, c)] = (A, X)
    return pairs, mismatches, time.perf_counter() - t0


@pytest.fixture(scope="module")
def q_sweep():
    """(pairs, mismatches, elapsed) over the four (q, n_max) sweeps."""
    t0 = time.perf_counter()
    pairs = {}
    mismatches = []
    for q, n_max in Q_SWEEP_LIMITS:
        for n in range(0, n_max + 1):
            for c in range(0, n + 1):
                for r in range(0, c + 1):
                    A = build_incidence(n, q, r, c).to_rat_matrix()
                    X = expand_class_matrix(class_matrix(n, q, r, c))
                    if X != pseudoinverse_oracle(A):
                        mismatches.append((q, n, r, c))
                    pairs[(q, n, r, c)] = (A, X)
    return pairs, mismatches, time.perf_counter() - t0


def test_criterion_01_set_closed_form_equals_oracle(set_sweep):
    pairs, mismatches, elapsed = set_sweep
    try:
        assert len(pairs) == 165
        assert mismatches == []
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    except BaseException:
        _report(1, False)
        raise
    _report(1, True)


def test_criterion_02_set_regime_identities(set_sweep):
    pairs, _, _ = set_sweep
    try:
        for (n, r, c), (A, X) in pairs.items():
            if n >= r + c:
                assert (A @ X).is_identity(), (n, r, c, "MM*")
            if n <= r + c:
                assert (X @ A).is_identity(), (n, r, c, "M*M")
    except BaseException:
        _report(2, False)
        raise
    _report(2, True)


def test_criterion_03_subspace_closed_form_equals_oracle(q_sweep):
    pairs, mismatches, elapsed = q_sweep
    try:
        assert mismatches == []
        assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    except BaseException:
        _report(3, False)
        raise
    _report(3, True)


def _coordinate_subspace(n, q, pivots):
    """The enumerated subspace spanned by the given standard basis vectors,
    whose rows are already its rref."""
    basis = tuple(tuple(int(j == p) for j in range(n)) for p in pivots)
    return next(S for S in enumerate_subspaces(n, q, len(basis)) if S.basis == basis)


def _check_counting_lemmas(q, n):
    for c in range(0, n + 1):
        for r in range(0, c + 1):
            # containing: c-spaces over a fixed R, classified by meeting R'
            if c <= n - r:
                R = _coordinate_subspace(n, q, range(r))
                c_spaces = enumerate_subspaces(n, q, c)
                for k in range(0, r + 1):
                    Rp = _coordinate_subspace(
                        n, q, list(range(k)) + list(range(r, 2 * r - k))
                    )
                    assert intersection_dim(R, Rp) == k
                    tally = Counter(
                        intersection_dim(Rp, C)
                        for C in c_spaces
                        if intersection_dim(R, C) == r
                    )
                    assert sum(tally.values()) == gaussian_binomial(n - r, c - r, q)
                    for i in range(k, r + 1):
                        want = count_containing_with_intersection(n, q, r, c, k, i)
                        assert tally.get(i, 0) == want, (q, n, r, c, k, i)
            # contained: r-spaces inside a fixed C', classified by meeting C
            r_spaces = enumerate_subspaces(n, q, r)
            for k in range(max(0, 2 * c - n), r + 1):
                C = _coordinate_subspace(n, q, range(c))
                Cp = _coordinate_subspace(
                    n, q, list(range(k)) + list(range(c, 2 * c - k))
                )
                assert intersection_dim(C, Cp) == k
                tally = Counter(
                    intersection_dim(R, C)
                    for R in r_spaces
                    if intersection_dim(R, Cp) == len(R.basis)
                )
                assert sum(tally.values()) == gaussian_binomial(c, r, q)
                for i in range(0, k + 1):
                    want = count_contained_with_intersection(n, q, c, k, r, i)
                    assert tally.get(i, 0) == want, (q, n, c, k, r, i)


def test_criterion_04_counting_formulas_match_enumeration():
    try:
        for q in (2, 3):
            for n in range(0, 6):
                _check_counting_lemmas(q, n)
        # the middle top index must be n-2r+k: at (n,q,r,c,k,i) = (4,2,1,2,0,0)
        # it gives 6, matching enumeration; the plausible alternative n-2k+r
        # would give [1,0]*[5,1]*2 = 62 and is refuted by the same enumeration
        assert count_containing_with_intersection(4, 2, 1, 2, 0, 0) == 6
        alt = (
            gaussian_binomial(1, 0, 2)
            * gaussian_binomial(4 - 0 + 1, 1, 2)
            * 2 ** ((2 - 1 - 0 + 0) * (1 - 0))
        )
        assert alt == 62 != 6
    except BaseException:
        _report(4, False)
        raise
    _report(4, True)


def test_criterion_05_alternating_sum_identities(rng):
    try:
        for _ in range(200):
            n = rng.randint(1, 12)
            deg = rng.randint(0, n - 1)
            poly = int_polynomial([rng.randint(-30, 30) for _ in range(deg + 1)])
            assert ruiz_sum(n, poly) == 0
        for q in (2, 3, 4, 5, 8, 9):
            for n in range(1, 11):
                for m in range(0, n):
                    assert q_ruiz_sum(n, m, q) == 0, (n, m, q)
        for _ in range(100):
            n = rng.randint(1, 8)
            q = rng.choice([2, 3, 5])
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            assert gauss_binomial_formula_check(n, x, a, q)
    except BaseException:
        _report(5, False)
        raise
    _report(5, True)


def test_criterion_06_design_closed_form():
    try:
        fano = validated_design(parse_design(SAMPLE_DESIGNS[0]), 2)
        X = m1_mpinv_closed_form(fano)
        A = build_design_incidence(fano, 1).to_rat_matrix()
        for bi, B in enumerate(fano.blocks):
            for u in range(1, fano.v + 1):
                want = Fraction(1, 3) if u in B else Fraction(-1, 6)
                assert X.at(bi, u - 1) == want
        assert X == pseudoinverse_oracle(A)
        two_i_plus_j = [[3 if i == j else 1 for j in range(7)] for i in range(7)]
        assert A @ A.transpose() == RatMatrix.from_rows(two_i_plus_j)
        for path in SAMPLE_DESIGNS[1:]:
            D = validated_design(parse_design(path), 2)
            M1 = build_design_incidence(D, 1).to_rat_matrix()
            assert m1_mpinv_closed_form(D) == pseudoinverse_oracle(M1), D.name
    except BaseException:
        _report(6, False)
        raise
    _report(6, True)


def test_criterion_07_characteristic_p_reductions():
    try:
        checked = 0
        for n in range(0, 7):
            for c in range(0, n + 1):
                for r in range(0, c + 1):
                    A = build_incidence(n, 1, r, c).to_rat_matrix()
                    X = expand_class_matrix(class_matrix(n, 1, r, c))
                    for p in (2, 3, 5, 7, 11, 13):
                        if char_p_obstruction(n, 1, r, c, p) is not None:
                            continue
                        Xp = rat_matrix_mod_p(X, p)
                        assert penrose_check_mod_p(A, Xp, p).all_ok, (n, r, c, p)
                        checked += 1
        assert checked > 0
        q_checked = 0
        for n in range(0, 5):
            for c in range(0, n + 1):
                for r in range(0, c + 1):
                    A = build_incidence(n, 2, r, c).to_rat_matrix()
                    X = expand_class_matrix(class_matrix(n, 2, r, c))
                    for p in (3, 5, 7, 11, 13):
                        if char_p_obstruction(n, 2, r, c, p) is not None:
                            continue
                        Xp = rat_matrix_mod_p(X, p)
                        assert penrose_check_mod_p(A, Xp, p).all_ok, (n, r, c, p)
                        q_checked += 1
        assert q_checked > 0
    except BaseException:
        _report(7, False)
        raise
    _report(7, True)


def _random_rational_matrix(rng):
    rows = rng.randint(1, 8)
    cols = rng.randint(1, 8)
    if rng.random() < 0.5:
        return RatMatrix.from_rows(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
    k = rng.randint(1, min(rows, cols))
    F = RatMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4)) for _ in range(k)] for _ in range(rows)]
    )
    G = RatMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(k)]
    )
    return F @ G


def test_criterion_08_oracle_self_consistency(rng):
    try:
        matrices = [RatMatrix.zeros(3, 2)]
        matrices += [_random_rational_matrix(rng) for _ in range(99)]
        for A in matrices:
            X = pseudoinverse_oracle(A)
            assert penrose_check(A, X).all_ok
            assert pseudoinverse_oracle(X) == A
    except BaseException:
        _report(8, False)
        raise
    _report(8, True)


def test_criterion_09_survey_cli_on_bundled_sample():
    try:
        for s in (0, 1, 2):
            proc = subprocess.run(
                [sys.executable, "-m", "mpinc", "survey",
                 "--dir", str(FANO_DIR), "--s", str(s)],
                capture_output=True,
                text=True,
                cwd=ROOT,
            )
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout)
            assert doc["s"] == s
            for entry in doc["designs"]:
                assert entry["penrose"] == [True, True, True, True]
            if s == 1:
                assert doc["designs"][0]["classes"] == {
                    "i=1": ["1/3"],
                    "i=0": ["-1/6"],
                }
    except BaseException:
        _report(9, False)
        raise
    _report(9, True)


def test_subspace_regime_identities(q_sweep):
    # not a numbered criterion: the one-sided identity regimes carry over
    # from the set case to the subspace case on the swept parameters
    pairs, _, _ = q_sweep
    for (q, n, r, c), (A, X) in pairs.items():
        if n >= r + c:
            assert (A @ X).is_identity(), (q, n, r, c)
        if n <= r + c:
            assert (X @ A).is_identity(), (q, n, r, c)
