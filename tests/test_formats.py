from fractions import Fraction

import pytest

from mpinc.errors import ParameterError
from mpinc.formats import (
    format_rational,
    parse_csv,
    parse_json,
    parse_mtx,
    parse_rational,
    write_csv,
    write_json,
    write_mtx,
)
from mpinc.linalg import RatMatrix
from mpinc.subspaces import build_incidence


SAMPLE = RatMatrix.from_rows(
    [[Fraction(1, 3), Fraction(-1, 6)], [0, 2]]
)


def test_format_rational():
    assert format_rational(Fraction(-1, 6)) == "-1/6"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"


def test_parse_rational_round_trip():
    for s in ["0", "7", "-3", "1/3", "-1/6", "22/7"]:
        assert format_rational(parse_rational(s)) == s


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


def test_mtx_parse_rejects_bad_header():
    with pytest.raises(ParameterError):
        parse_mtx("%%MatrixMarket matrix array real general\n1 1\n1\n")


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
