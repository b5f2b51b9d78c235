"""Matrix serialization: CSV and JSON of exact rationals, Matrix Market
coordinate pattern for 0/1 incidence matrices.

The writers take a ClassMatrix, an IncidenceMatrix or a RatMatrix and
render rows of strings straight from it. Rationals render as "num/den" with
the denominator omitted when it is 1.
"""

import json
from fractions import Fraction
from itertools import chain

from .errors import ParameterError
from .linalg import IncidenceMatrix
from .subspaces import ClassMatrix, class_rows


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
