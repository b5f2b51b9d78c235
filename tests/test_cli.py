import json
import subprocess
import sys
from pathlib import Path

import pytest

from mpinc.cli import main
from mpinc.formats import parse_csv, parse_json, parse_mtx, write_csv
from mpinc.linalg import (
    IncidenceMatrix,
    RatMatrix,
    penrose_products,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from mpinc.rationals import PRIMALITY_BOUND, rat_mod_p
from mpinc.subspaces import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    expand_class_matrix,
)

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


def test_large_prime_field_and_modulus(capsys):
    # a 31-bit prime q and a 17-digit prime modulus are decided at once
    q = 2**31 - 1
    code, out, err = run(capsys, ["mpinv", "subspace", "--n", "3", "--q", str(q), "--r", "1", "--c", "2"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {f"i={i}": str(x) for i, x in enumerate(class_matrix(3, q, 1, 2).values)}
    p = 10**16 + 61
    code, out, err = run(capsys, ["mpinv", "set", "--n", "4", "--r", "1", "--c", "2", "--mod", str(p)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        f"i={i}": str(rat_mod_p(x, p)) for i, x in enumerate(class_matrix(4, 1, 1, 2).values)
    }


def test_refuses_numbers_past_the_primality_bound(capsys):
    big = str(PRIMALITY_BOUND)
    for argv in (["set", "--mod", big], ["subspace", "--q", big]):
        code, out, err = run(capsys, ["mpinv", *argv, "--n", "3", "--r", "1", "--c", "2"])
        assert (code, out) == (2, "")
        assert big in err


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


def add_one_at(X, i, j):
    """X + E_ij."""
    rows = X.to_rows()
    rows[i][j] += 1
    return RatMatrix.from_rows(rows)


def test_verify_failure_exits_1(capsys, monkeypatch):
    def bumped_closed_form(cm):
        return add_one_at(expand_class_matrix(cm), 0, 0)

    monkeypatch.setattr("mpinc.cli.expand_class_matrix", bumped_closed_form)
    code, out, err = run(capsys, ["verify", "set", "--n", "4", "--r", "1", "--c", "2"])
    assert (code, out, err) == (1, "", "cond1 fails for the closed-form inverse\n")


def test_verify_oracle_mismatch_exits_1(capsys, monkeypatch):
    # the closed form passes all four conditions, so only the comparison
    # with the (here perturbed) oracle can fail; entry (1, 2) is 1/3
    def bumped_oracle(A):
        return add_one_at(pseudoinverse_oracle(A), 1, 2)

    monkeypatch.setattr("mpinc.cli.pseudoinverse_oracle", bumped_oracle)
    code, out, err = run(capsys, ["verify", "set", "--n", "4", "--r", "1", "--c", "2"])
    assert (code, out, err) == (
        1, "", "closed form differs from oracle at entry (1, 2): 1/3 vs 4/3\n"
    )


def test_verify_regime_identity_failure_exits_1(capsys, monkeypatch):
    # n = r + c: both identities are read off the Penrose products
    def bumped_products(A, X):
        report, AX, XA = penrose_products(A, X)
        return report, AX, add_one_at(XA, 0, 1)

    monkeypatch.setattr("mpinc.cli.penrose_products", bumped_products)
    code, out, err = run(capsys, ["verify", "set", "--n", "3", "--r", "1", "--c", "2"])
    assert (code, out, err) == (1, "", "regime identity M*M=I fails\n")


def test_verify_design_penrose_failure_exits_1(capsys, monkeypatch):
    def bumped_oracle(A):
        return add_one_at(pseudoinverse_oracle(A), 0, 0)

    monkeypatch.setattr("mpinc.cli.pseudoinverse_oracle", bumped_oracle)
    code, out, err = run(capsys, ["verify", "design", "--file", FANO, "--s", "1"])
    assert (code, out, err) == (1, "", "cond1 fails for the oracle inverse of M_1\n")


def test_survey_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, ["survey", "--dir", "samples/fano", "--s", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["designs"][0]["classes"] == {"i=1": ["1/3"], "i=0": ["-1/6"]}
    assert doc["exceptions"] == []

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "a.blk").write_text(Path(FANO).read_text())
    (mixed / "b.blk").write_text(Path("samples/pairs/pairs42.blk").read_text())
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


@pytest.mark.parametrize("argv", [
    ["verify", "set", "--n", "5", "--r", "1", "--c", "2"],
    ["verify", "subspace", "--n", "3", "--q", "2", "--r", "1", "--c", "2"],
    ["verify", "design", "--file", FANO, "--s", "1"],
    ["survey", "--dir", "samples/fano", "--s", "1"],
], ids=["verify-set", "verify-subspace", "verify-design", "survey"])
def test_each_incidence_matrix_is_densified_once(capsys, monkeypatch, argv):
    # the oracle and the Penrose certificate share one dense RatMatrix
    built, densified = [], []
    init, to_rat_matrix = IncidenceMatrix.__init__, IncidenceMatrix.to_rat_matrix

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_to_rat_matrix(self):
        densified.append(self)
        return to_rat_matrix(self)

    monkeypatch.setattr(IncidenceMatrix, "__init__", counting_init)
    monkeypatch.setattr(IncidenceMatrix, "to_rat_matrix", counting_to_rat_matrix)
    assert run(capsys, argv)[0] == 0
    assert built
    assert list(map(id, densified)) == list(map(id, built))

@pytest.mark.parametrize("blocks, message", [
    ("2 1\n", "line 1: block (2, 1) is not strictly increasing"),
    ("0 1 2\n", "line 1: point 0 is out of range; points are 1-based"),
    ("1 2 3\n-4 5 6\n", "line 2: point -4 is out of range; points are 1-based"),
    ("1 2 3\n4 5 6\xe9\n", "line 2: byte 0xe9 is not ASCII"),
], ids=["not-increasing", "zero", "negative", "not-ascii"])
def test_malformed_design_names_the_file_once(capsys, tmp_path, blocks, message):
    d = tmp_path / "designs"
    d.mkdir()
    (d / "bad.blk").write_bytes(blocks.encode("latin-1"))
    expected = (2, "", f"mpinc: bad.blk: {message}\n")
    design = ["--file", str(d / "bad.blk"), "--s", "1"]
    for command in ("build", "mpinv", "verify"):
        assert run(capsys, [command, "design", *design]) == expected
    assert run(capsys, ["survey", "--dir", str(d), "--s", "1"]) == expected


def test_survey_names_a_non_design_once(capsys, tmp_path):
    # the validation message carries the file name already
    d = tmp_path / "designs"
    d.mkdir()
    (d / "bad.blk").write_text("# 2 4 2 1\n1 2\n1 3\n")
    code, _, err = run(capsys, ["survey", "--dir", str(d), "--s", "1"])
    assert code == 2
    assert err.count("bad.blk") == 1
    assert err.startswith("mpinc: bad.blk: not a 2-design;")
    verify = ["verify", "design", "--file", str(d / "bad.blk"), "--s", "1"]
    assert run(capsys, verify) == (2, "", err)
    # so does a strength above the block size
    code, _, err = run(capsys, ["survey", "--dir", str(d), "--s", "1", "--t", "3"])
    assert (code, err) == (2, "mpinc: bad.blk: need 1 <= t <= k = 2, got t=3\n")


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


# sets with n <= 6, GF(2) with n <= 4 and GF(3) with n <= 3, every r <= c <= n
SMALL_FAMILY = [
    (n, q, r, c)
    for q, top in ((1, 6), (2, 4), (3, 3))
    for n in range(top + 1)
    for c in range(n + 1)
    for r in range(c + 1)
]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_mod_p_reduces_class_values(capsys, p):
    # the CLI reduces the r + 1 class values; reducing every dense entry of
    # the rational expand is the reference
    admissible = [t for t in SMALL_FAMILY if char_p_obstruction(*t, p) is None]
    assert admissible
    for n, q, r, c in admissible:
        kind = ["set"] if q == 1 else ["subspace", "--q", str(q)]
        argv = ["mpinv", *kind, "--n", str(n), "--r", str(r), "--c", str(c), "--mod", str(p)]
        cm = class_matrix(n, q, r, c)
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == {f"i={i}": str(rat_mod_p(x, p)) for i, x in enumerate(cm.values)}
        code, out, err = run(capsys, [*argv, "--expand", "--format", "csv"])
        assert (code, err) == (0, "")
        assert out == write_csv(rat_matrix_mod_p(expand_class_matrix(cm), p))
