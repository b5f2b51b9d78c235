"""The benchmark's own formulas against brute-force enumeration.

    python3 -m pytest -q perfbench/test_expect.py

Subsets come from itertools; subspaces of GF(p)^n (p = 2, 3) are enumerated
as sets of vectors, each grown from a smaller one by one more vector. Nothing here imports
mpinc, so a pass means the output checks in expect.py can be trusted.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

import expect
from workloads import SURVEY_DESIGNS, pg32_blocks, write_designs


def subsets(n, k):
    return [frozenset(s) for s in itertools.combinations(range(n), k)]


def subspaces(n, p, k):
    """Every k-dimensional subspace of GF(p)^n, as a frozenset of vectors.

    Each (d+1)-space is the span of a d-space and one vector outside it.
    """
    vectors = list(itertools.product(range(p), repeat=n))
    level = {frozenset([vectors[0]])}
    for _ in range(k):
        level = {
            frozenset(tuple((a + m * b) % p for a, b in zip(u, v))
                      for u in space for m in range(p))
            for space in level for v in vectors if v not in space
        }
    return sorted(level, key=sorted)


def family(n, q, k):
    return subsets(n, k) if q == 1 else subspaces(n, q, k)


def meet_dim(a, b, q):
    """|a ∩ b| for subsets; dim(a ∩ b) = log_q |a ∩ b| for subspaces."""
    size = len(a & b)
    if q == 1:
        return size
    dim = 0
    while size > 1:
        size //= q
        dim += 1
    return dim


CASES = [(n, q, r, c)
         for q, n_max in ((1, 6), (2, 4), (3, 3))
         for n in range(n_max + 1) for r in range(n + 1) for c in range(r, n + 1)]


@pytest.mark.parametrize("n,q,k", [(n, q, k) for q, n_max in ((1, 7), (2, 5), (3, 4))
                                   for n in range(n_max + 1) for k in range(n + 1)])
def test_gbinom_counts_subspaces(n, q, k):
    assert expect.gbinom(n, k, q) == len(family(n, q, k))


@pytest.mark.parametrize("n,q,r,c", CASES)
def test_class_sizes_and_incidence_shape(n, q, r, c):
    rs, cs = family(n, q, r), family(n, q, c)
    meets = Counter(meet_dim(R, C, q) for C in cs for R in rs)
    assert [meets[i] for i in range(r + 1)] == expect.class_sizes(n, q, r, c)
    row_sums = {sum(R <= C for C in cs) for R in rs}
    col_sums = {sum(R <= C for R in rs) for C in cs}
    rows, cols, nnz, row_sum, col_sum = expect.incidence_shape(n, q, r, c)
    assert (rows, cols) == (len(rs), len(cs))
    assert row_sums == {row_sum} and col_sums == {col_sum}
    assert nnz == sum(R <= C for R in rs for C in cs)


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _transpose(A):
    return [list(col) for col in zip(*A)]


@pytest.mark.parametrize("n,q,r,c", [case for case in CASES if case[0] <= 4])
def test_class_values_satisfy_penrose(n, q, r, c):
    """X[C][R] = v_{dim(R ∩ C)} is the pseudoinverse of the brute-force incidence."""
    rs, cs = family(n, q, r), family(n, q, c)
    values = expect.class_values(n, q, r, c)
    A = [[Fraction(int(R <= C)) for C in cs] for R in rs]
    X = [[values[meet_dim(R, C, q)] for R in rs] for C in cs]
    AX, XA = _matmul(A, X), _matmul(X, A)
    assert _matmul(AX, A) == A
    assert _matmul(XA, X) == X
    assert AX == _transpose(AX) and XA == _transpose(XA)
    claimed = expect.regime(n, r, c)
    if claimed in ("MM*=I", "both"):
        assert AX == _identity(len(rs))
    if claimed in ("M*M=I", "both"):
        assert XA == _identity(len(cs))


def _identity(size):
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def test_expanded_check_accepts_brute_force_and_rejects_a_flipped_entry():
    n, q, r, c = 4, 2, 1, 2
    rs, cs = family(n, q, r), family(n, q, c)
    values = expect.class_values(n, q, r, c)
    csv = "\n".join(",".join(str(values[meet_dim(R, C, q)]) for R in rs) for C in cs)
    rows, cols, counts = expect.read_csv(csv)
    expect.check_expanded((rows, cols), counts, n, q, r, c)
    counts[values[0]] += 1
    counts[values[1]] -= 1
    with pytest.raises(expect.CheckError):
        expect.check_expanded((rows, cols), counts, n, q, r, c)


def test_mtx_check_on_brute_force_incidence():
    n, q, r, c = 3, 3, 1, 2
    rs, cs = family(n, q, r), family(n, q, c)
    coords = [(i + 1, j + 1) for i, R in enumerate(rs) for j, C in enumerate(cs) if R <= C]
    text = "\n".join(["%%MatrixMarket matrix coordinate pattern general",
                      f"{len(rs)} {len(cs)} {len(coords)}"]
                     + [f"{i} {j}" for i, j in coords]) + "\n"
    expect.check_incidence_mtx(text, n, q, r, c)
    with pytest.raises(expect.CheckError):
        expect.check_incidence_mtx(text, n, q, 1, 1)


@pytest.mark.parametrize("design", sorted(SURVEY_DESIGNS))
def test_generated_designs_are_2_designs(tmp_path, design):
    (t, v, k, lam), _ = SURVEY_DESIGNS[design]
    assert len(pg32_blocks(k)) == lam * v * (v - 1) // (k * (k - 1))
    write_designs(tmp_path, seed=7)
    for path in sorted((tmp_path / design).iterdir()):
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {t} {v} {k} {lam}"
        blocks = [set(map(int, line.split())) for line in lines[1:]]
        pair_counts = Counter(pair for B in blocks for pair in itertools.combinations(sorted(B), 2))
        assert len(pair_counts) == v * (v - 1) // 2 and set(pair_counts.values()) == {lam}
