"""Matrix serialization: CSV and JSON of exact rationals, Matrix Market
coordinate pattern for 0/1 incidence matrices. Every writer has a parser and
round-trips bit-exactly.

The writers take a ClassMatrix, an IncidenceMatrix or a RatMatrix and
render rows of strings straight from it. Rationals render as "num/den" with
the denominator omitted when it is 1.
"""

import json
import re
from fractions import Fraction
from itertools import chain

from .errors import ParameterError
from .linalg import IncidenceMatrix, RatMatrix
from .subspaces import ClassMatrix, class_rows

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(s):
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ParameterError(f"not a rational literal: {s!r}")
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _text_rows(M):
    """The rows of M as lists of entry strings.

    M is a ClassMatrix, an IncidenceMatrix or a RatMatrix. A class matrix
    renders its r + 1 values once and an incidence matrix its supports as
    "0"/"1", so neither builds a dense matrix. A RatMatrix renders each
    distinct int of its scaled rows once.
    """
    if isinstance(M, ClassMatrix):
        return class_rows(M, tuple(map(str, M.values)))
    if isinstance(M, IncidenceMatrix):
        return (_indicator(support, M.cols) for support in M.row_support)
    text = {v: str(Fraction(v, M.den)) for v in set(chain.from_iterable(M.nums))}
    return (list(map(text.__getitem__, row)) for row in M.nums)


def _indicator(support, cols):
    row = ["0"] * cols
    for j in support:
        row[j] = "1"
    return row


def write_csv(M):
    return "\n".join(map(",".join, _text_rows(M))) + "\n"


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
    """The bytes of json.dumps(doc, indent=2) + "\n" for the document with
    rows, cols, entries and the labels given, entries joined row by row.

    Rationals need no JSON escaping, so an entry is its string in quotes.
    The labels still go through json.dumps.
    """
    doc = {"rows": M.rows, "cols": M.cols, "entries": []}
    if row_labels is not None:
        doc["row_labels"] = row_labels
    if col_labels is not None:
        doc["col_labels"] = col_labels
    head, _, tail = json.dumps(doc, indent=2).partition('"entries": []')
    rows = [
        '[\n      "' + '",\n      "'.join(row) + '"\n    ]' if row else "[]"
        for row in _text_rows(M)
    ]
    entries = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return head + '"entries": ' + entries + tail + "\n"


def parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"JSON matrix is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"JSON matrix must be an object, got {type(doc).__name__}")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise ParameterError(f"JSON matrix is missing {key!r}")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    for key, size in (("rows", rows), ("cols", cols)):
        # bool is an int subclass, so the type is compared exactly
        if type(size) is not int or size < 0:
            raise ParameterError(f"JSON matrix {key!r} must be a non-negative int, got {size!r}")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParameterError("JSON matrix row count mismatch")
    flat = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParameterError("JSON matrix column count mismatch")
        for j, x in enumerate(row):
            if not isinstance(x, str):
                raise ParameterError(f"JSON matrix entry ({i},{j}) = {x!r} is not a string")
            flat.append(parse_rational(x))
    return RatMatrix(rows, cols, tuple(flat))


def write_mtx(M):
    """Matrix Market coordinate pattern (1-based); 0/1 matrices only."""
    support = M.row_support if isinstance(M, IncidenceMatrix) else _pattern_support(M)
    col_text = [str(j) for j in range(1, M.cols + 1)]
    lines = [
        "%%MatrixMarket matrix coordinate pattern general",
        f"{M.rows} {M.cols} {sum(map(len, support))}",
    ]
    for i, cols in enumerate(support, start=1):
        if cols:
            prefix = f"{i} "
            lines.append(prefix + ("\n" + prefix).join(map(col_text.__getitem__, cols)))
    return "\n".join(lines) + "\n"


def _pattern_support(M):
    # the row supports of a class or rational 0/1 matrix, read from its
    # text rows and refusing at the first entry that is neither
    support = []
    for i, row in enumerate(_text_rows(M)):
        cols = []
        for j, x in enumerate(row):
            if x == "1":
                cols.append(j)
            elif x != "0":
                raise ParameterError(
                    "Matrix Market pattern output needs a 0/1 matrix; "
                    f"entry ({i},{j}) = {x}"
                )
        support.append(cols)
    return support


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
    if lines[0].split() != ["%%MatrixMarket", "matrix", "coordinate", "pattern", "general"]:
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
