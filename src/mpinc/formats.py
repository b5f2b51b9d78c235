"""Matrix serialization: CSV and JSON of exact rationals, Matrix Market
coordinate pattern for 0/1 incidence matrices.

The writers take a ClassMatrix, an IncidenceMatrix or a RatMatrix and
render rows of strings straight from it. Rationals render as "num/den" with
the denominator omitted when it is 1.

Each writer returns an iterator of text chunks: a header, if the format has
one, then one chunk per row, so a caller can write a matrix while holding
one row of text; "".join(chunks) is the whole file. A writer raises any
refusal when it is called, before it returns, so a refused matrix writes
no byte.
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
        return M.indicator_rows("1", "0")
    text = {v: str(Fraction(v, M.den)) for v in set(chain.from_iterable(M.nums))}
    return (list(map(text.__getitem__, row)) for row in M.nums)


def write_csv(M):
    """One line of comma-joined entries per row; a matrix with no rows is
    one empty line."""
    rows = _text_rows(M)
    if not M.rows:
        return iter(["\n"])
    return (",".join(row) + "\n" for row in rows)


def write_json(M, row_labels=None, col_labels=None):
    """The chunks of json.dumps(doc, indent=2) + "\\n" for the document with
    rows, cols, entries and the labels given: the text up to the entries,
    one chunk per row, then the rest.

    Rationals need no JSON escaping, so an entry is its string in quotes.
    The labels still go through json.dumps.
    """
    doc = {"rows": M.rows, "cols": M.cols, "entries": []}
    if row_labels is not None:
        doc["row_labels"] = row_labels
    if col_labels is not None:
        doc["col_labels"] = col_labels
    head, entries, tail = json.dumps(doc, indent=2).partition('"entries": []')
    rows = _text_rows(M)
    if not M.rows:
        return iter([head + entries + tail + "\n"])
    return chain([head + '"entries": ['], _json_rows(rows), ["\n  ]" + tail + "\n"])


def _json_rows(rows):
    sep = "\n    "
    for row in rows:
        yield sep + ('[\n      "' + '",\n      "'.join(row) + '"\n    ]' if row else "[]")
        sep = ",\n    "


def write_mtx(M):
    """Matrix Market coordinate pattern (1-based); 0/1 matrices only.

    The support is read before the first chunk, so the header carries the
    nonzero count and a matrix that is not 0/1 is refused up front.
    """
    support = M.row_support if isinstance(M, IncidenceMatrix) else _pattern_support(M)
    header = (
        "%%MatrixMarket matrix coordinate pattern general\n"
        f"{M.rows} {M.cols} {sum(map(len, support))}\n"
    )
    return chain([header], _mtx_rows(support, [f"{j}\n" for j in range(1, M.cols + 1)]))


def _mtx_rows(support, col_lines):
    for i, cols in enumerate(support, start=1):
        if cols:
            prefix = f"{i} "
            yield prefix + prefix.join(map(col_lines.__getitem__, cols))


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
