import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinc.cli import _render_labels, main
from mpinc.errors import ParameterError
from mpinc.formats import (
    parse_csv,
    parse_json,
    parse_mtx,
    parse_rational,
    write_csv,
    write_json,
    write_mtx,
)
from mpinc.linalg import IncidenceMatrix, RatMatrix
from mpinc.rationals import rat_mod_p
from mpinc.subspaces import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    expand_class_matrix,
    labels,
)


SAMPLE = RatMatrix.from_rows(
    [[Fraction(1, 3), Fraction(-1, 6)], [0, 2]]
)


def render(x):
    # a rational as write_csv renders it in a 1 x 1 matrix
    return write_csv(RatMatrix.from_rows([[x]])).rstrip("\n")


def test_format_rational():
    assert render(Fraction(-1, 6)) == "-1/6"
    assert render(Fraction(4, 2)) == "2"
    assert render(Fraction(0)) == "0"


def test_parse_rational_round_trip():
    for s in ["0", "7", "-3", "1/3", "-1/6", "22/7"]:
        assert render(parse_rational(s)) == s


def test_parse_rational_rejects_garbage():
    for s in ["1.5", "a/b", "1/0", "1/-2", "", "1 /2", "+3"]:
        with pytest.raises(ParameterError):
            parse_rational(s)


def test_csv_round_trip():
    text = write_csv(SAMPLE)
    assert text == "1/3,-1/6\n0,2\n"
    assert parse_csv(text) == SAMPLE


def test_csv_ragged_rejected():
    from mpinc.errors import MpincError

    with pytest.raises(MpincError):
        parse_csv("1,2\n3\n")


def test_json_round_trip():
    text = write_json(SAMPLE)
    assert parse_json(text) == SAMPLE


def test_json_labels_preserved():
    import json

    text = write_json(SAMPLE, row_labels=["a", "b"], col_labels=["x", "y"])
    doc = json.loads(text)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["entries"][0] == ["1/3", "-1/6"]
    assert doc["row_labels"] == ["a", "b"]
    assert doc["col_labels"] == ["x", "y"]
    assert parse_json(text) == SAMPLE


def test_json_shape_mismatch_rejected():
    with pytest.raises(ParameterError):
        parse_json('{"rows": 2, "cols": 2, "entries": [["1"]]}')


@pytest.mark.parametrize("text, message", [
    ("5", "must be an object, got int"),
    ('[["1"]]', "must be an object, got list"),
    ('{"rows": true, "cols": 0, "entries": []}', "'rows' must be a non-negative int, got True"),
    ('{"rows": 0, "cols": -1, "entries": []}', "'cols' must be a non-negative int, got -1"),
    ('{"rows": 1.0, "cols": 1, "entries": [["1"]]}', "'rows' must be a non-negative int, got 1.0"),
    ('{"rows": 1, "cols": 2, "entries": [[1, 2]]}', r"entry \(0,0\) = 1 is not a string"),
    ('{"rows": 1, "cols": 1, "entries": [[null]]}', r"entry \(0,0\) = None is not a string"),
    ('{"rows": 1, "cols": 1, "entries": 5}', "row count mismatch"),
], ids=["number", "array", "bool-rows", "negative-cols", "float-rows", "int-entries",
        "null-entry", "entries-not-list"])
def test_json_rejects_malformed_document(text, message):
    with pytest.raises(ParameterError, match=message):
        parse_json(text)


def test_mtx_round_trip_set_incidence():
    inc = build_incidence(3, 1, 1, 2)
    text = write_mtx(inc.to_rat_matrix())
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate pattern general"
    assert lines[1] == "3 3 6"
    back = parse_mtx(text)
    assert back.row_support == inc.row_support
    assert back.to_rat_matrix() == inc.to_rat_matrix()


def test_mtx_round_trip_subspace_incidence():
    inc = build_incidence(3, 2, 1, 2)
    back = parse_mtx(write_mtx(inc.to_rat_matrix()))
    assert back.to_rat_matrix() == inc.to_rat_matrix()


def test_mtx_entries_one_based_and_sorted():
    inc = build_incidence(3, 1, 1, 2)
    body = write_mtx(inc.to_rat_matrix()).splitlines()[2:]
    pairs = [tuple(map(int, ln.split())) for ln in body]
    assert min(min(p) for p in pairs) == 1
    assert pairs == sorted(pairs)


def test_mtx_rejects_non_01_matrix():
    with pytest.raises(ParameterError):
        write_mtx(SAMPLE)
    # the refusal names the first entry that is neither 0 nor 1
    with pytest.raises(ParameterError, match=r"entry \(1,0\) = -1/2$"):
        write_mtx(RatMatrix.from_rows([[1, 0], [Fraction(-1, 2), 3]]))


def test_mtx_parse_rejects_bad_header():
    with pytest.raises(ParameterError):
        parse_mtx("%%MatrixMarket matrix array real general\n1 1\n1\n")
    # only "general" is read: a symmetric header would drop the mirrored entries
    for symmetry in ("symmetric", "skew-symmetric", "hermitian", "", "general extra"):
        header = f"%%MatrixMarket matrix coordinate pattern {symmetry}".rstrip()
        with pytest.raises(ParameterError, match="unsupported MatrixMarket flavor"):
            parse_mtx(header + "\n2 2 1\n2 1\n")


def test_mtx_parse_rejects_wrong_count():
    with pytest.raises(ParameterError):
        parse_mtx("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n")


def test_mtx_parse_rejects_out_of_range():
    with pytest.raises(ParameterError):
        parse_mtx("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n")


MTX_HEADER = "%%MatrixMarket matrix coordinate pattern general\n"


def test_mtx_parse_rejects_missing_size_line():
    with pytest.raises(ParameterError, match="missing size line"):
        parse_mtx(MTX_HEADER)


@pytest.mark.parametrize("size", ["2 2", "2 x 0", "-1 2 0"])
def test_mtx_parse_rejects_bad_size_line(size):
    with pytest.raises(ParameterError, match=f"bad size line '{size}'"):
        parse_mtx(MTX_HEADER + size + "\n")


def test_mtx_parse_rejects_repeated_coordinate():
    with pytest.raises(ParameterError, match=r"coordinate line '1 1' repeats \(1, 1\)"):
        parse_mtx(MTX_HEADER + "2 2 2\n1 1\n1 1\n")


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
        return write(M, **kwargs)
    except ParameterError as exc:
        return f"refused: {exc}"


def _reduced(cm, p):
    return replace(cm, values=tuple(Fraction(rat_mod_p(x, p)) for x in cm.values))


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
        assert write_json(cm, row_labels=row_labels, col_labels=col_labels) == write_json(
            X, row_labels=row_labels, col_labels=col_labels
        )
        checked += 1
    assert checked > 100


def test_incidence_writers_match_the_dense_matrix():
    for n, q, r, c in FAMILY_CASES:
        M = build_incidence(n, q, r, c)
        A = M.to_rat_matrix()
        for write in (write_csv, write_json, write_mtx):
            assert write(M) == write(A), (write.__name__, n, q, r, c)


def _json_reference(M, rows, **labels):
    doc = {"rows": M.rows, "cols": M.cols, "entries": [[str(x) for x in row] for row in rows]}
    doc.update(labels)
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("rows, cols", [(0, 0), (2, 0), (0, 2), (1, 1), (2, 3)])
def test_write_json_is_json_dumps_on_edge_shapes(rows, cols):
    X = RatMatrix(rows, cols, tuple(Fraction(i - 2, 3) for i in range(rows * cols)))
    M = IncidenceMatrix(rows, cols, tuple(tuple(range(i % 2, cols, 2)) for i in range(rows)))
    labels = {"row_labels": [[i] for i in range(rows)], "col_labels": ["a"] * cols}
    for A, dense in ((X, X), (M, M.to_rat_matrix())):
        assert write_json(A) == _json_reference(A, dense.to_rows())
        assert write_json(A, **labels) == _json_reference(A, dense.to_rows(), **labels)
        assert write_json(A, row_labels=[]) == _json_reference(A, dense.to_rows(), row_labels=[])


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
    X = RatMatrix(len(rows), cols, tuple(x for row in rows for x in row))
    labels = {}
    if row_labels is not None:
        labels["row_labels"] = row_labels
    if col_labels is not None:
        labels["col_labels"] = col_labels
    assert write_json(X, **labels) == _json_reference(X, rows, **labels)


def _no_rat_matrix(self, *fields):
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
    monkeypatch.setattr(RatMatrix, "_fill", _no_rat_matrix)
    with pytest.raises(AssertionError, match="a RatMatrix was built"):
        expand_class_matrix(class_matrix(3, 1, 1, 2))
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
