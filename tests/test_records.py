"""The record types are immutable named tuples: frozen fields, _replace,
value equality and hashing, a Name(field=...) repr, no instance dict, a
copy, deepcopy and pickle that rebuild the record from its fields, and a
package import that does without the dataclasses module."""

import copy
import os
import pickle
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from mpinc.designs import parse_design, survey_designs, validated_design
from mpinc.errors import ShapeError
from mpinc.gf import build_field
from mpinc.linalg import RatMatrix, penrose_check
from mpinc.subspaces import build_incidence, class_matrix, enumerate_subspaces, expand_class_matrix

SRC = Path(__file__).resolve().parents[1] / "src"
FANO = "samples/fano/fano.blk"


def _penrose_report():
    M = build_incidence(4, 1, 1, 2).to_rat_matrix()
    return penrose_check(M, expand_class_matrix(class_matrix(4, 1, 1, 2)))


# build_field and enumerate_subspaces are cached; their unwrapped bodies
# build fresh records
RECORDS = {
    "FieldSpec": lambda: build_field.__wrapped__(4),
    "RatMatrix": lambda: RatMatrix(2, 2, 3, [[1, 2], [3, 4]]),
    "IncidenceMatrix": lambda: build_incidence(3, 2, 1, 2),
    "PenroseReport": _penrose_report,
    "SubspaceBasis": lambda: enumerate_subspaces.__wrapped__(3, 2, 1)[0],
    "ClassMatrix": lambda: class_matrix(4, 1, 1, 2),
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
    assert not hasattr(record, "__dict__")
    for rebuilt in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(rebuilt) is type(record)
        assert rebuilt == record


def _span_points(S):
    """The vectors of the span of S's basis whose first nonzero coordinate
    is 1, from every combination of its rows."""
    f = S.field
    points = set()
    for coefs in product(range(f.q), repeat=len(S.basis)):
        v = (0,) * S.n
        for a, row in zip(coefs, S.basis):
            v = tuple(f.add[x][f.mul[a][y]] for x, y in zip(v, row))
        lead = next((x for x in v if x), None)
        if lead == 1:
            points.add(v)
    return points


def test_equal_bases_give_equal_records():
    # the two enumerations build every record afresh
    for n, q, r in [(3, 2, 1), (3, 3, 2), (2, 4, 1), (2, 2, 0)]:
        for a, b in zip(enumerate_subspaces.__wrapped__(n, q, r),
                        enumerate_subspaces.__wrapped__(n, q, r)):
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert a.points == b.points == _span_points(a)


def test_matrix_records_check_their_shape():
    with pytest.raises(ShapeError, match=r"^int rows do not form a 2x2 matrix$"):
        RatMatrix(2, 2, 1, [[1, 2]])
    with pytest.raises(ShapeError, match=r"^int rows do not form a 2x2 matrix$"):
        RatMatrix(2, 2, 3, [[1, 2], [3]])
    with pytest.raises(ShapeError, match=r"^negative dimensions$"):
        RatMatrix(-1, 2, 1, ())
    with pytest.raises(ShapeError, match=r"^ragged rows$"):
        RatMatrix.from_rows([[1, 2], [3]])
