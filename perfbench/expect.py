"""What correct mpinc output looks like, computed without mpinc.

Every formula here is built on math.comb and plain integer arithmetic; none
of it imports the package under test. q = 1 stands for the set family, so
one code path covers sets (ordinary binomials) and GF(q) subspaces
(Gaussian binomials). test_expect.py checks each formula against brute-force
enumeration of small subsets and GF(2)/GF(3) subspaces.

Readers for the CSV, JSON and Matrix Market outputs are here too, so an
emitted file is checked by code that shares nothing with mpinc.formats.
"""

import json
import math
from collections import Counter
from fractions import Fraction


class CheckError(AssertionError):
    """An mpinc output disagrees with what the benchmark computed for it."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# counting

def gbinom(n, k, q=1):
    """[n, k]_q, the number of k-subspaces of GF(q)^n; C(n, k) when q = 1.

    Zero outside 0 <= k <= n.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    if q == 1:
        return math.comb(n, k)
    num = den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def class_values(n, q, r, c):
    """The closed-form pseudoinverse entry for each intersection class i = 0..r.

    v_i = (-1)^(r-i) [c-i-1, r-i]_q / ([N-r, c-r]_q [N-c, r-i]_q
          q^((c-r)(r-i) + C(r-i, 2))), N = max(n, r + c),
    with the numerator read as 1 at i = r. q = 1 gives the set family.
    """
    N = max(n, r + c)
    out = []
    for i in range(r + 1):
        num = 1 if i == r else gbinom(c - i - 1, r - i, q)
        den = (gbinom(N - r, c - r, q) * gbinom(N - c, r - i, q)
               * q ** ((c - r) * (r - i) + math.comb(r - i, 2)))
        out.append(Fraction((-1) ** (r - i) * num, den))
    return out


def class_sizes(n, q, r, c):
    """How many (C, R) pairs, C a c-space and R an r-space, meet in dimension i.

    [n, c]_q [c, i]_q [n-c, r-i]_q q^((c-i)(r-i)) for i = 0..r: choose C,
    then the i-space R ∩ C inside C, then extend it by r - i dimensions
    outside C.
    """
    return [
        gbinom(n, c, q) * gbinom(c, i, q) * gbinom(n - c, r - i, q)
        * q ** ((c - i) * (r - i))
        for i in range(r + 1)
    ]


def incidence_shape(n, q, r, c):
    """(rows, cols, nnz, row sum, column sum) of the r-in-c inclusion matrix."""
    rows, cols = gbinom(n, r, q), gbinom(n, c, q)
    row_sum, col_sum = gbinom(n - r, c - r, q), gbinom(c, r, q)
    return rows, cols, rows * row_sum, row_sum, col_sum


def regime(n, r, c):
    """Which one-sided identity the closed form satisfies."""
    if n > r + c:
        return "MM*=I"
    if n < r + c:
        return "M*M=I"
    return "both"


# ---------------------------------------------------------------------------
# readers, independent of mpinc.formats

def _value_counts(cells):
    """Counter of the rationals in an iterable of cell strings."""
    counts = Counter()
    for cell, count in Counter(cells).items():
        counts[Fraction(cell)] += count
    return counts


def read_csv(text):
    """(rows, cols, Counter of values) of a CSV matrix of rationals."""
    lines = [line.split(",") for line in text.splitlines() if line]
    require(lines, "empty CSV output")
    width = len(lines[0])
    require(all(len(row) == width for row in lines), "ragged CSV output")
    return len(lines), width, _value_counts(cell for row in lines for cell in row)


def read_json_matrix(text):
    """(document, Counter of values) of a JSON matrix of rationals."""
    doc = json.loads(text)
    entries = doc["entries"]
    require(len(entries) == doc["rows"], "JSON row count disagrees with 'rows'")
    require(all(len(row) == doc["cols"] for row in entries),
            "JSON row width disagrees with 'cols'")
    return doc, _value_counts(cell for row in entries for cell in row)


def read_mtx(text):
    """(rows, cols, coordinate list) of a coordinate pattern Matrix Market file."""
    lines = text.splitlines()
    require(lines and lines[0] == "%%MatrixMarket matrix coordinate pattern general",
            "missing Matrix Market pattern header")
    body = [line for line in lines[1:] if line and not line.startswith("%")]
    rows, cols, nnz = map(int, body[0].split())
    coords = [tuple(map(int, line.split())) for line in body[1:]]
    require(len(coords) == nnz, f"header says nnz={nnz}, file has {len(coords)}")
    return rows, cols, coords


# ---------------------------------------------------------------------------
# checks on command outputs

def check_verify(doc, kind, n, q, r, c):
    where = f"verify {kind} n={n} q={q} r={r} c={c}"
    require(doc.get("ok") is True, f"{where}: ok is not true")
    require(doc.get("matches_oracle") is True, f"{where}: closed form differs from oracle")
    require(all(doc["penrose"][f"cond{k}"] is True for k in range(1, 5)),
            f"{where}: a Penrose condition fails")
    require(doc.get("regime") == regime(n, r, c),
            f"{where}: regime {doc.get('regime')!r}, expected {regime(n, r, c)!r}")
    require((doc["n"], doc["r"], doc["c"]) == (n, r, c), f"{where}: report echoes other parameters")


def check_class_values(doc, n, q, r, c):
    expected = class_values(n, q, r, c)
    got = {int(key[2:]): Fraction(value) for key, value in doc.items()}
    require(got == dict(enumerate(expected)),
            f"mpinv class values n={n} q={q} r={r} c={c}: got {got}, expected {expected}")


def check_expanded(shape, values, n, q, r, c):
    """X is [n,c]_q x [n,r]_q and takes value v_i exactly class_sizes[i] times.

    values is a Counter mapping each entry of X to how often it occurs.
    """
    where = f"mpinv --expand n={n} q={q} r={r} c={c}"
    require(shape == (gbinom(n, c, q), gbinom(n, r, q)), f"{where}: shape {shape}")
    expected = Counter()
    for value, size in zip(class_values(n, q, r, c), class_sizes(n, q, r, c)):
        expected[value] += size
    require(values == expected, f"{where}: value counts {dict(values)} != {dict(expected)}")


def check_incidence_mtx(text, n, q, r, c):
    where = f"build mtx n={n} q={q} r={r} c={c}"
    rows, cols, coords = read_mtx(text)
    n_rows, n_cols, nnz, row_sum, col_sum = incidence_shape(n, q, r, c)
    require((rows, cols) == (n_rows, n_cols), f"{where}: shape {rows}x{cols}")
    require(len(coords) == nnz, f"{where}: nnz {len(coords)} != {nnz}")
    require(len(set(coords)) == nnz, f"{where}: repeated coordinates")
    row_count = Counter(i for i, _ in coords)
    col_count = Counter(j for _, j in coords)
    require(set(row_count) == set(range(1, rows + 1))
            and set(row_count.values()) == {row_sum}, f"{where}: a row sum is not {row_sum}")
    require(set(col_count) == set(range(1, cols + 1))
            and set(col_count.values()) == {col_sum}, f"{where}: a column sum is not {col_sum}")


def check_survey(doc, s, v, k, lam, copies):
    """Every copy certified, every class agreeing across relabelled copies.

    At s = 1 each class is the single value of the two-value closed form:
    1/lambda_1 on incident pairs, -(k-1)/(lambda_1 (v-k)) off them.
    """
    where = f"survey 2-({v},{k},{lam}) s={s}"
    require(len(doc["designs"]) == copies, f"{where}: {len(doc['designs'])} designs reported")
    for design in doc["designs"]:
        require(design["penrose"] == [True] * 4, f"{where}: {design['id']} fails Penrose")
    require(doc["cross_design"]
            and set(doc["cross_design"].values()) == {"agree"},
            f"{where}: relabelled copies disagree: {doc['cross_design']}")
    if s == 1:
        lam1 = Fraction(lam * (v - 1), k - 1)
        expected = {"i=1": [str(1 / lam1)], "i=0": [str(-(k - 1) / (lam1 * (v - k)))]}
        for design in doc["designs"]:
            require(design["classes"] == expected,
                    f"{where}: classes {design['classes']} != {expected}")
