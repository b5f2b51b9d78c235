"""The record types are immutable named tuples: frozen fields, _replace,
value equality and hashing, a Name(field=...) repr, and a package import
that does without the dataclasses module."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from mpinc.designs import parse_design, survey_designs, validated_design
from mpinc.errors import ShapeError
from mpinc.gf import GFMatrix, build_field
from mpinc.linalg import RatMatrix, penrose_check
from mpinc.subspaces import build_incidence, class_matrix, enumerate_subspaces, expand_class_matrix

SRC = Path(__file__).resolve().parents[1] / "src"
FANO = "samples/fano/fano.blk"


def _penrose_report():
    M = build_incidence(4, 1, 1, 2).to_rat_matrix()
    return penrose_check(M, expand_class_matrix(class_matrix(4, 1, 1, 2)))


def _gf_matrix():
    zero, one, two = build_field(3).elements
    return GFMatrix(2, 2, (one, two, zero, one))


# enumerate_subspaces is cached; its unwrapped body builds a fresh record
RECORDS = {
    "RatMatrix": lambda: RatMatrix.from_ints(2, 2, [[1, 2], [3, 4]], 3),
    "IncidenceMatrix": lambda: build_incidence(3, 2, 1, 2),
    "PenroseReport": _penrose_report,
    "SubspaceBasis": lambda: enumerate_subspaces.__wrapped__(3, 2, 1)[0],
    "ClassMatrix": lambda: class_matrix(4, 1, 1, 2),
    "GFMatrix": _gf_matrix,
    "Design": lambda: parse_design(FANO),
    "SurveyReport": lambda: survey_designs([validated_design(parse_design(FANO), 2)], 1),
}


def test_import_needs_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import mpinc.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    fields = record._fields
    snapshot = tuple(record)

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    marker = object()
    changed = record._replace(**{fields[-1]: marker})
    assert type(changed) is type(record)
    assert getattr(changed, fields[-1]) is marker
    assert changed != record
    assert tuple(record) == snapshot

    twin = RECORDS[name]()
    assert twin is not record
    assert twin == record
    if name != "SurveyReport":  # its cross_design is a dict
        assert hash(twin) == hash(record)

    assert repr(record).startswith(f"{name}({fields[0]}=")
    # only SubspaceBasis keeps an instance dict, for its cached points
    assert hasattr(record, "__dict__") == (name == "SubspaceBasis")
    assert pickle.loads(pickle.dumps(record)) == record


def test_cached_points_stay_out_of_equality():
    a = RECORDS["SubspaceBasis"]()
    b = RECORDS["SubspaceBasis"]()
    assert a.points
    assert "points" in vars(a) and "points" not in vars(b)
    assert a == b and hash(a) == hash(b)


def test_matrix_records_check_their_shape():
    one = build_field(2).elements[1]
    with pytest.raises(ShapeError, match="2x2 matrix needs 4 entries, got 3"):
        GFMatrix(2, 2, (one,) * 3)
    with pytest.raises(ShapeError, match="2x2 matrix needs 4 entries, got 3"):
        RatMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ShapeError, match="int rows do not form a 2x2 matrix"):
        RatMatrix.from_ints(2, 2, [[1, 2], [3]])
    with pytest.raises(ShapeError, match=r"^negative dimensions$"):
        RatMatrix(-1, 2, ())
