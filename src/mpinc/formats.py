"""Matrix serialization: CSV and JSON of exact rationals, Matrix Market
coordinate pattern for 0/1 incidence matrices. Every writer has a parser and
round-trips bit-exactly.

Rationals render as "num/den" with the denominator omitted when it is 1.
"""

import json
import re
from fractions import Fraction

from .errors import ParameterError
from .linalg import IncidenceMatrix, RatMatrix

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def format_rational(x):
    return str(x)


def parse_rational(s):
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ParameterError(f"not a rational literal: {s!r}")
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _as_rat_matrix(M):
    if isinstance(M, IncidenceMatrix):
        return M.to_rat_matrix()
    return M


def write_csv(M):
    M = _as_rat_matrix(M)
    lines = [
        ",".join(format_rational(x) for x in M.row(i)) for i in range(M.rows)
    ]
    return "\n".join(lines) + "\n"


def parse_csv(text):
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append([parse_rational(cell) for cell in line.split(",")])
    if not rows:
        raise ParameterError("empty CSV matrix")
    return RatMatrix.from_rows(rows)


def write_json(M, row_labels=None, col_labels=None):
    M = _as_rat_matrix(M)
    doc = {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [
            [format_rational(x) for x in M.row(i)] for i in range(M.rows)
        ],
    }
    if row_labels is not None:
        doc["row_labels"] = row_labels
    if col_labels is not None:
        doc["col_labels"] = col_labels
    return json.dumps(doc, indent=2) + "\n"


def parse_json(text):
    doc = json.loads(text)
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise ParameterError(f"JSON matrix is missing {key!r}")
    entries = doc["entries"]
    if len(entries) != doc["rows"]:
        raise ParameterError("JSON matrix row count mismatch")
    rows = []
    for row in entries:
        if len(row) != doc["cols"]:
            raise ParameterError("JSON matrix column count mismatch")
        rows.append([parse_rational(x) for x in row])
    flat = tuple(x for row in rows for x in row)
    return RatMatrix(doc["rows"], doc["cols"], flat)


def write_mtx(M):
    """Matrix Market coordinate pattern (1-based); 0/1 matrices only."""
    if isinstance(M, IncidenceMatrix):
        coords = [
            (i + 1, j + 1)
            for i, support in enumerate(M.row_support)
            for j in support
        ]
        rows, cols = M.rows, M.cols
    else:
        coords = []
        for i in range(M.rows):
            for j, x in enumerate(M.row(i)):
                if x == 1:
                    coords.append((i + 1, j + 1))
                elif x != 0:
                    raise ParameterError(
                        "Matrix Market pattern output needs a 0/1 matrix; "
                        f"entry ({i},{j}) = {x}"
                    )
        rows, cols = M.rows, M.cols
    lines = ["%%MatrixMarket matrix coordinate pattern general"]
    lines.append(f"{rows} {cols} {len(coords)}")
    lines.extend(f"{i} {j}" for i, j in coords)
    return "\n".join(lines) + "\n"


def _mtx_counts(line, count, what):
    # the count non-negative integers of one line, or ParameterError naming it
    fields = line.split()
    if len(fields) != count or not all(x.isdecimal() for x in fields):
        raise ParameterError(f"bad {what} line {line!r}: expected {count} non-negative integers")
    return [int(x) for x in fields]


def parse_mtx(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParameterError("missing MatrixMarket header")
    header = lines[0].split()
    if header[1:4] != ["matrix", "coordinate", "pattern"]:
        raise ParameterError(f"unsupported MatrixMarket flavor: {lines[0]!r}")
    body = [ln for ln in lines[1:] if not ln.startswith("%")]
    if not body:
        raise ParameterError("missing size line after the MatrixMarket header")
    rows, cols, nnz = _mtx_counts(body[0], 3, "size")
    if len(body) - 1 != nnz:
        raise ParameterError(f"expected {nnz} coordinate lines, got {len(body) - 1}")
    support = [set() for _ in range(rows)]
    for ln in body[1:]:
        i, j = _mtx_counts(ln, 2, "coordinate")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParameterError(f"coordinate ({i}, {j}) out of range")
        if j - 1 in support[i - 1]:
            raise ParameterError(f"coordinate line {ln!r} repeats ({i}, {j})")
        support[i - 1].add(j - 1)
    return IncidenceMatrix(
        rows=rows,
        cols=cols,
        row_support=tuple(tuple(sorted(s)) for s in support),
    )
