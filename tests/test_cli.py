import json
import subprocess
import sys

import pytest

from mpinc.cli import main
from mpinc.formats import parse_csv, parse_json, parse_mtx
from mpinc.linalg import RatMatrix
from mpinc.subspaces import build_incidence, class_matrix, expand_class_matrix

FANO = "samples/fano/fano.blk"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mpinv_set_class_values_json(capsys):
    code, out, _ = run(capsys, ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"i=1": "1/3", "i=0": "-1/6"}
    # keys run from i = r down to i = 0
    assert list(doc) == ["i=1", "i=0"]


def test_mpinv_set_mod_inadmissible(capsys):
    code, out, err = run(
        capsys, ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2", "--mod", "3"]
    )
    assert code == 3
    assert out == ""
    assert "binomial(3,1) = 3" in err


def test_mpinv_set_mod_admissible(capsys):
    code, out, _ = run(
        capsys, ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2", "--mod", "5"]
    )
    assert code == 0
    assert json.loads(out) == {"i=1": "2", "i=0": "4"}


def test_mpinv_subspace_mod_q_inadmissible(capsys):
    code, _, err = run(
        capsys,
        ["mpinv", "subspace", "--n", "3", "--q", "2", "--r", "1", "--c", "2", "--mod", "2"],
    )
    assert code == 3
    assert "q = 2" in err


@pytest.mark.parametrize("mod", ["", "--mod 7", "--mod 2"])
def test_mpinv_subspace_refuses_non_prime_power_q(capsys, mod):
    code, out, err = run(
        capsys, ["mpinv", "subspace", "--n", "3", "--q", "6", "--r", "1", "--c", "2", *mod.split()]
    )
    assert code == 2
    assert out == ""
    assert "6 is not a prime power" in err


@pytest.mark.parametrize("mod", ["0", "-3", "1", "4"])
def test_mpinv_refuses_non_prime_modulus(capsys, mod):
    for kind in (["set"], ["subspace", "--q", "2"]):
        code, out, err = run(
            capsys, ["mpinv", *kind, "--n", "4", "--r", "1", "--c", "2", "--mod", mod]
        )
        assert code == 2
        assert out == ""
        assert f"--mod {mod}" in err


def test_main_twice_gives_independent_results(capsys):
    first = run(capsys, ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2", "--mod", "5"])
    assert run(capsys, ["calc", "binomial", "7", "3"]) == (0, "35\n", "")
    second = run(capsys, ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2"])
    assert first == (0, json.dumps({"i=1": "2", "i=0": "4"}, indent=2) + "\n", "")
    assert json.loads(second[1]) == {"i=1": "1/3", "i=0": "-1/6"}


def test_mpinv_set_expand_csv_round_trips(capsys):
    code, out, _ = run(
        capsys,
        ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2", "--expand", "--format", "csv"],
    )
    assert code == 0
    assert parse_csv(out) == expand_class_matrix(class_matrix(4, 1, 1, 2))


def test_build_set_mtx(capsys):
    code, out, _ = run(
        capsys, ["build", "set", "--n", "4", "--r", "1", "--c", "2", "--format", "mtx"]
    )
    assert code == 0
    assert out.splitlines()[1] == "4 6 12"
    assert parse_mtx(out).to_rat_matrix() == build_incidence(4, 1, 1, 2).to_rat_matrix()


def test_build_rejects_bad_parameters(capsys):
    code, out, err = run(capsys, ["build", "set", "--n", "2", "--r", "3", "--c", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("mpinc:")


def test_build_subspace_with_labels_json(capsys):
    code, out, _ = run(
        capsys,
        ["build", "subspace", "--n", "2", "--q", "2", "--r", "1", "--c", "1",
         "--format", "json", "--with-labels"],
    )
    assert code == 0
    doc = json.loads(out)
    assert parse_json(out) == RatMatrix.identity(3)
    assert doc["row_labels"] == [[["1", "0"]], [["1", "1"]], [["0", "1"]]]
    assert doc["row_labels"] == doc["col_labels"]


def test_with_labels_requires_json(capsys):
    code, _, err = run(
        capsys,
        ["build", "subspace", "--n", "2", "--q", "2", "--r", "1", "--c", "1",
         "--format", "csv", "--with-labels"],
    )
    assert code == 2
    assert "--with-labels" in err


def test_mpinv_design_closed_form_entries(capsys):
    code, out, _ = run(capsys, ["mpinv", "design", "--file", FANO, "--s", "1"])
    assert code == 0
    X = parse_json(out)
    assert (X.rows, X.cols) == (7, 7)
    # block 1 of the bundled file is {1, 3, 5}
    assert [str(x) for x in X.row(0)] == ["1/3", "-1/6", "1/3", "-1/6", "1/3", "-1/6", "-1/6"]


def test_mpinv_design_needs_strength(capsys, tmp_path):
    f = tmp_path / "noheader.blk"
    f.write_text("1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n")
    code, _, err = run(capsys, ["mpinv", "design", "--file", str(f), "--s", "1"])
    assert code == 2
    assert "--t" in err
    code, out, _ = run(capsys, ["mpinv", "design", "--file", str(f), "--s", "1", "--t", "2"])
    assert code == 0
    assert parse_json(out).rows == 6


def test_verify_set_right_inverse_regime(capsys):
    code, out, _ = run(capsys, ["verify", "set", "--n", "6", "--r", "2", "--c", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "MM*=I"
    assert doc["ok"] is True
    assert doc["matches_oracle"] is True


def test_verify_set_left_inverse_regime(capsys):
    code, out, _ = run(capsys, ["verify", "set", "--n", "4", "--r", "2", "--c", "3"])
    assert code == 0
    assert json.loads(out)["regime"] == "M*M=I"


def test_verify_subspace_two_sided_regime(capsys):
    code, out, _ = run(
        capsys, ["verify", "subspace", "--n", "3", "--q", "2", "--r", "1", "--c", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "both"
    assert all(doc["penrose"].values())


def test_verify_design(capsys):
    code, out, _ = run(capsys, ["verify", "design", "--file", FANO, "--s", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 2 and doc["lambda"] == 1
    assert doc["closed_form_matches_oracle"] is True
    assert doc["ok"] is True


def test_verify_failure_exits_1(capsys, monkeypatch):
    def sabotaged(cm):
        X = expand_class_matrix(cm)
        flipped = list(X.entries)
        flipped[0] += 1
        return RatMatrix(X.rows, X.cols, tuple(flipped))

    monkeypatch.setattr("mpinc.cli.expand_class_matrix", sabotaged)
    code, out, err = run(capsys, ["verify", "set", "--n", "4", "--r", "1", "--c", "2"])
    assert code == 1
    assert err != ""


def test_survey_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, ["survey", "--dir", "samples/fano", "--s", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["designs"][0]["classes"] == {"i=1": ["1/3"], "i=0": ["-1/6"]}
    assert doc["exceptions"] == []

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "a.blk").write_text(open(FANO).read())
    (mixed / "b.blk").write_text(open("samples/pairs/pairs42.blk").read())
    code, _, err = run(capsys, ["survey", "--dir", str(mixed), "--s", "1"])
    assert code == 2
    assert err.startswith("mpinc:")

    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, ["survey", "--dir", str(empty), "--s", "1"])
    assert code == 2


def test_survey_bad_file_names_the_file(capsys, tmp_path):
    d = tmp_path / "designs"
    d.mkdir()
    (d / "bad.blk").write_text("2 1\n")
    code, _, err = run(capsys, ["survey", "--dir", str(d), "--s", "1"])
    assert code == 2
    assert "bad.blk" in err


def test_calc_outputs(capsys):
    assert run(capsys, ["calc", "binomial", "7", "3"]) == (0, "35\n", "")
    assert run(capsys, ["calc", "gaussian", "4", "2", "--q", "2"]) == (0, "35\n", "")
    assert run(capsys, ["calc", "qint", "5", "--q", "3"]) == (0, "121\n", "")


def test_calc_rejects_bad_field(capsys):
    code, _, err = run(capsys, ["calc", "gaussian", "4", "2", "--q", "1"])
    assert code == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "vals.json"
    code, out, _ = run(
        capsys,
        ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"i=1": "1/3", "i=0": "-1/6"}


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, ["mpinv", "design", "--file", str(tmp_path / "absent.blk"), "--s", "1"]
    )
    assert code == 2
    assert err.startswith("mpinc:")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mpinc", "calc", "binomial", "7", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "35\n"
