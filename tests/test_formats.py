import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinc.cli import _render_labels, main
from mpinc.errors import ParameterError
from mpinc.formats import write_csv, write_json, write_mtx
from mpinc.linalg import IncidenceMatrix, RatMatrix
from mpinc.rationals import rat_mod_p
from mpinc.subspaces import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    expand_class_matrix,
    labels,
)
from reference import rat_matrix, read_csv, read_json, read_mtx


SAMPLE = RatMatrix.from_rows(
    [[Fraction(1, 3), Fraction(-1, 6)], [0, 2]]
)


def render(x):
    # a rational as write_csv renders it in a 1 x 1 matrix
    return "".join(write_csv(RatMatrix.from_rows([[x]]))).rstrip("\n")


def test_format_rational():
    assert render(Fraction(-1, 6)) == "-1/6"
    assert render(Fraction(4, 2)) == "2"
    assert render(Fraction(0)) == "0"


def test_csv_round_trip():
    text = "".join(write_csv(SAMPLE))
    assert text == "1/3,-1/6\n0,2\n"
    assert read_csv(text) == SAMPLE


def test_json_round_trip():
    text = "".join(write_json(SAMPLE))
    assert read_json(text) == SAMPLE


def test_json_labels_preserved():
    text = "".join(write_json(SAMPLE, row_labels=["a", "b"], col_labels=["x", "y"]))
    doc = json.loads(text)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["entries"][0] == ["1/3", "-1/6"]
    assert doc["row_labels"] == ["a", "b"]
    assert doc["col_labels"] == ["x", "y"]
    assert read_json(text) == SAMPLE


def test_mtx_round_trip_set_incidence():
    inc = build_incidence(3, 1, 1, 2)
    text = "".join(write_mtx(inc.to_rat_matrix()))
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate pattern general"
    assert lines[1] == "3 3 6"
    back = read_mtx(text)
    assert back.row_support == inc.row_support
    assert back.to_rat_matrix() == inc.to_rat_matrix()


def test_mtx_round_trip_subspace_incidence():
    inc = build_incidence(3, 2, 1, 2)
    back = read_mtx("".join(write_mtx(inc.to_rat_matrix())))
    assert back.to_rat_matrix() == inc.to_rat_matrix()


def test_mtx_entries_one_based_and_sorted():
    inc = build_incidence(3, 1, 1, 2)
    body = "".join(write_mtx(inc.to_rat_matrix())).splitlines()[2:]
    pairs = [tuple(map(int, ln.split())) for ln in body]
    assert min(min(p) for p in pairs) == 1
    assert pairs == sorted(pairs)


def test_mtx_rejects_non_01_matrix():
    # the call itself refuses, before it hands back a chunk
    with pytest.raises(ParameterError):
        write_mtx(SAMPLE)
    # the refusal names the first entry that is neither 0 nor 1
    with pytest.raises(ParameterError, match=r"entry \(1,0\) = -1/2$"):
        write_mtx(RatMatrix.from_rows([[1, 0], [Fraction(-1, 2), 3]]))


# ---------------------------------------------------------------------------
# the writers read class and incidence matrices directly

def _family_cases():
    ranges = [(1, n) for n in range(9)] + [(2, n) for n in range(5)]
    ranges += [(q, n) for q in (3, 4) for n in range(4)]
    for q, n in ranges:
        for c in range(n + 1):
            for r in range(c + 1):
                yield n, q, r, c


FAMILY_CASES = list(_family_cases())


def _written(write, M, **kwargs):
    # the writer's text, or the message it refuses with
    try:
        return "".join(write(M, **kwargs))
    except ParameterError as exc:
        return f"refused: {exc}"


def _reduced(cm, p):
    return cm._replace(values=tuple(Fraction(rat_mod_p(x, p)) for x in cm.values))


@pytest.mark.parametrize("p", [None, 7])
def test_class_matrix_writers_match_the_expansion(p):
    checked = 0
    for n, q, r, c in FAMILY_CASES:
        cm = class_matrix(n, q, r, c)
        if p is not None:
            if char_p_obstruction(n, q, r, c, p) is not None:
                continue
            cm = _reduced(cm, p)
        X = expand_class_matrix(cm)
        for write in (write_csv, write_json, write_mtx):
            assert _written(write, cm) == _written(write, X), (write.__name__, n, q, r, c)
        row_labels = _render_labels(labels(n, q, c))
        col_labels = _render_labels(labels(n, q, r))
        assert _written(write_json, cm, row_labels=row_labels, col_labels=col_labels) == _written(
            write_json, X, row_labels=row_labels, col_labels=col_labels
        )
        checked += 1
    assert checked > 100


def test_incidence_writers_match_the_dense_matrix():
    for n, q, r, c in FAMILY_CASES:
        M = build_incidence(n, q, r, c)
        A = M.to_rat_matrix()
        for write in (write_csv, write_json, write_mtx):
            assert "".join(write(M)) == "".join(write(A)), (write.__name__, n, q, r, c)


def _json_reference(M, rows, **labels):
    doc = {"rows": M.rows, "cols": M.cols, "entries": [[str(x) for x in row] for row in rows]}
    doc.update(labels)
    return json.dumps(doc, indent=2) + "\n"


def _csv_reference(rows):
    # the lines of comma-joined entries, each ended by a newline; with no
    # rows, the one empty line
    return "\n".join(",".join(map(str, row)) for row in rows) + "\n"


def _mtx_reference(M, rows):
    # the header, the shape with the nonzero count, then "i j" (1-based) for
    # each nonzero in row-major order; None for a matrix that is not 0/1
    if any(x not in (0, 1) for row in rows for x in row):
        return None
    pairs = [f"{i} {j}" for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1) if x]
    header = ["%%MatrixMarket matrix coordinate pattern general", f"{M.rows} {M.cols} {len(pairs)}"]
    return "\n".join(header + pairs) + "\n"


@pytest.mark.parametrize("rows, cols", [(0, 0), (2, 0), (0, 2), (1, 1), (2, 3)])
def test_write_json_is_json_dumps_on_edge_shapes(rows, cols):
    X = rat_matrix(rows, cols, [Fraction(i - 2, 3) for i in range(rows * cols)])
    M = IncidenceMatrix(rows, cols, tuple(tuple(range(i % 2, cols, 2)) for i in range(rows)))
    labels = {"row_labels": [[i] for i in range(rows)], "col_labels": ["a"] * cols}
    for A, dense in ((X, X), (M, M.to_rat_matrix())):
        entries = dense.to_rows()
        assert "".join(write_json(A)) == _json_reference(A, entries)
        assert "".join(write_json(A, **labels)) == _json_reference(A, entries, **labels)
        assert "".join(write_json(A, row_labels=[])) == _json_reference(A, entries, row_labels=[])
        assert "".join(write_csv(A)) == _csv_reference(entries)
        expected = _mtx_reference(A, entries)
        if expected is None:
            with pytest.raises(ParameterError):
                write_mtx(A)
        else:
            assert "".join(write_mtx(A)) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.fractions(max_denominator=50), min_size=cols, max_size=cols),
            max_size=4,
        ).map(lambda rows: (cols, rows))
    ),
    st.one_of(st.none(), st.lists(st.lists(st.integers(-3, 30)), max_size=3)),
    st.one_of(st.none(), st.lists(st.text(max_size=3), max_size=3)),
)
def test_write_json_is_json_dumps(shape, row_labels, col_labels):
    cols, rows = shape
    X = rat_matrix(len(rows), cols, [x for row in rows for x in row])
    labels = {}
    if row_labels is not None:
        labels["row_labels"] = row_labels
    if col_labels is not None:
        labels["col_labels"] = col_labels
    assert "".join(write_json(X, **labels)) == _json_reference(X, rows, **labels)


def _no_rat_matrix(cls, *fields):
    raise AssertionError("a RatMatrix was built")


@pytest.mark.parametrize("argv", [
    "mpinv set --n 6 --r 2 --c 3 --expand --format csv",
    "mpinv set --n 6 --r 2 --c 3 --expand",
    "mpinv set --n 6 --r 2 --c 3 --expand --with-labels",
    "mpinv set --n 5 --r 2 --c 2 --expand --format mtx",
    "mpinv set --n 6 --r 2 --c 3 --expand --format csv --mod 7",
    "mpinv subspace --n 3 --q 2 --r 1 --c 2 --expand --format csv",
    "mpinv subspace --n 3 --q 3 --r 1 --c 2 --expand --with-labels",
    "mpinv subspace --n 3 --q 2 --r 1 --c 1 --expand --format mtx",
    "mpinv subspace --n 3 --q 2 --r 1 --c 2 --expand --format csv --mod 5",
])
def test_mpinv_expand_builds_no_rat_matrix(monkeypatch, capsys, argv):
    monkeypatch.setattr(RatMatrix, "__new__", _no_rat_matrix)
    with pytest.raises(AssertionError, match="a RatMatrix was built"):
        expand_class_matrix(class_matrix(3, 1, 1, 2))
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
