import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpinc.cli import main
from mpinc.designs import m1_mpinv_closed_form
from mpinc.formats import write_csv
from mpinc.linalg import (
    IncidenceMatrix,
    RatMatrix,
    penrose_identities,
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
from reference import read_csv, read_json, read_mtx

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


# 2021 = 43 * 47; the q = 6 cases are named by their mod alone
@pytest.mark.parametrize("mod, q", [
    pytest.param(mod, q, id=mod if q == 6 else f"{mod}-{q}")
    for q in (6, 10**30, 2021**8)
    for mod in ("", "--mod 7", "--mod 2")
])
def test_mpinv_subspace_refuses_non_prime_power_q(capsys, mod, q):
    code, out, err = run(
        capsys, ["mpinv", "subspace", "--n", "3", "--q", str(q), "--r", "1", "--c", "2", *mod.split()]
    )
    assert code == 2
    assert out == ""
    assert f"{q} is not a prime power" in err


@pytest.mark.parametrize("mod", ["0", "-3", "1", "4", "1000000000000000000000000000000"])
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
    assert read_csv(out) == expand_class_matrix(class_matrix(4, 1, 1, 2))


def test_build_set_mtx(capsys):
    code, out, _ = run(
        capsys, ["build", "set", "--n", "4", "--r", "1", "--c", "2", "--format", "mtx"]
    )
    assert code == 0
    assert out.splitlines()[1] == "4 6 12"
    assert read_mtx(out).to_rat_matrix() == build_incidence(4, 1, 1, 2).to_rat_matrix()


def test_build_rejects_bad_parameters(capsys):
    code, out, err = run(capsys, ["build", "set", "--n", "2", "--r", "3", "--c", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("mpinc:")
    # s above the block size: build refuses it, and so does the survey
    refused = (2, "", "mpinc: need 0 <= s <= k = 3, got s=4\n")
    assert run(capsys, ["build", "design", "--file", FANO, "--s", "4"]) == refused
    assert run(capsys, ["survey", "--dir", "samples/fano", "--s", "4"]) == refused
    # a flag that is not an integer is refused by the parser
    with pytest.raises(SystemExit) as exc:
        main(["verify", "subspace", "--n", "3", "--q", "abc", "--r", "1", "--c", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "mpinc verify subspace: error: argument --q: invalid int value: 'abc'\n"
    )


def test_build_subspace_with_labels_json(capsys):
    code, out, _ = run(
        capsys,
        ["build", "subspace", "--n", "2", "--q", "2", "--r", "1", "--c", "1",
         "--format", "json", "--with-labels"],
    )
    assert code == 0
    doc = json.loads(out)
    assert read_json(out) == RatMatrix.identity(3)
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


@pytest.mark.parametrize("argv, message", [
    (["build", "set", "--n", "16", "--r", "4", "--c", "8", "--format", "csv",
      "--with-labels"], "--with-labels requires --format json"),
    (["mpinv", "set", "--n", "16", "--r", "4", "--c", "8", "--expand",
      "--format", "mtx", "--with-labels"], "--with-labels requires --format json"),
    (["mpinv", "design", "--file", FANO, "--s", "1", "--format", "csv",
      "--with-labels"], "--with-labels requires --format json"),
    (["mpinv", "design", "--file", FANO, "--s", "2", "--format", "csv",
      "--with-labels"], "--with-labels requires --format json"),
    (["mpinv", "set", "--n", "16", "--r", "4", "--c", "8", "--format", "csv",
      "--with-labels"], "class values are JSON only; use --expand for csv/mtx"),
    (["mpinv", "set", "--n", "16", "--r", "4", "--c", "8", "--with-labels"],
     "--with-labels needs a matrix output; add --expand"),
    (["mpinv", "set", "--n", "16", "--r", "4", "--c", "8", "--mod", "4",
      "--format", "csv", "--with-labels"], "--mod 4 is not a prime"),
], ids=["build-set", "mpinv-expand", "mpinv-design-closed-form",
        "mpinv-design-oracle", "classes-csv", "classes-labels", "mod-first"])
def test_bad_flag_combinations_are_refused_before_any_work(capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("work done before the flags were checked")

    for name in ("build_incidence", "ms_mpinv_oracle", "m1_mpinv_closed_form", "labels"):
        monkeypatch.setattr(f"mpinc.cli.{name}", refuse)
    assert run(capsys, argv) == (2, "", f"mpinc: {message}\n")


def test_mpinv_design_closed_form_entries(capsys):
    code, out, _ = run(capsys, ["mpinv", "design", "--file", FANO, "--s", "1"])
    assert code == 0
    X = read_json(out)
    assert (X.rows, X.cols) == (7, 7)
    # block 1 of the bundled file is {1, 3, 5}
    assert [str(x) for x in X.row(0)] == ["1/3", "-1/6", "1/3", "-1/6", "1/3", "-1/6", "-1/6"]


def test_mpinv_design_has_no_expand(capsys):
    # a design's inverse is always emitted as a matrix
    with pytest.raises(SystemExit) as exc:
        main(["mpinv", "design", "--file", FANO, "--s", "1", "--expand"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --expand" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mpinv", "set", "--n", "5", "--r", "1", "--c", "2", "--expand", "--format", "csv"],
    ["mpinv", "subspace", "--n", "3", "--q", "2", "--r", "1", "--c", "2", "--expand"],
    ["mpinv", "design", "--file", FANO, "--s", "1"],
    ["mpinv", "design", "--file", FANO, "--s", "2", "--format", "csv"],
], ids=["set-expand", "subspace-expand", "design-closed-form", "design-oracle"])
def test_mpinv_builds_labels_only_with_labels(capsys, monkeypatch, argv):
    expected = run(capsys, argv)
    assert expected[0] == 0

    def refuse(*args):
        raise AssertionError("labels built without --with-labels")

    monkeypatch.setattr("mpinc.cli.labels", refuse)
    monkeypatch.setattr("mpinc.cli.all_subsets", refuse)
    assert run(capsys, argv) == expected


def test_mpinv_design_needs_strength(capsys, tmp_path):
    f = tmp_path / "noheader.blk"
    f.write_text("1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n")
    code, _, err = run(capsys, ["mpinv", "design", "--file", str(f), "--s", "1"])
    assert code == 2
    assert "--t" in err
    code, out, _ = run(capsys, ["mpinv", "design", "--file", str(f), "--s", "1", "--t", "2"])
    assert code == 0
    assert read_json(out).rows == 6


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
    def flipped_identities(A, X):
        report, ax_is_identity, xa_is_identity = penrose_identities(A, X)
        return report, ax_is_identity, not xa_is_identity

    monkeypatch.setattr("mpinc.cli.penrose_identities", flipped_identities)
    code, out, err = run(capsys, ["verify", "set", "--n", "3", "--r", "1", "--c", "2"])
    assert (code, out, err) == (1, "", "regime identity M*M=I fails\n")


@pytest.mark.parametrize("callee, argv", [
    ("build_incidence", ["build", "set", "--n", "30", "--r", "15", "--c", "15", "--format", "mtx"]),
    ("pseudoinverse_oracle", ["verify", "set", "--n", "4", "--r", "1", "--c", "2"]),
])
def test_out_of_memory_exits_2(capsys, monkeypatch, callee, argv):
    # exit 1 would read as a failed verification; memory is never exhausted
    # for real here, the callee raises as an allocation would
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(f"mpinc.cli.{callee}", exhausted)
    assert run(capsys, argv) == (2, "", "mpinc: out of memory\n")


def test_verify_design_penrose_failure_exits_1(capsys, monkeypatch):
    def bumped_oracle(A):
        return add_one_at(pseudoinverse_oracle(A), 0, 0)

    monkeypatch.setattr("mpinc.cli.pseudoinverse_oracle", bumped_oracle)
    code, out, err = run(capsys, ["verify", "design", "--file", FANO, "--s", "1"])
    assert (code, out, err) == (1, "", "cond1 fails for the oracle inverse of M_1\n")


def test_verify_design_closed_form_mismatch_exits_1(capsys, monkeypatch):
    # the oracle's inverse passes all four conditions, so only the comparison
    # with the (here perturbed) closed form can fail; entry (0, 0) is 1/3
    def bumped_closed_form(D):
        return add_one_at(m1_mpinv_closed_form(D), 0, 0)

    monkeypatch.setattr("mpinc.cli.m1_mpinv_closed_form", bumped_closed_form)
    code, out, err = run(capsys, ["verify", "design", "--file", FANO, "--s", "1"])
    assert (code, out, err) == (
        1, "", "closed form differs from oracle at entry (0, 0): 4/3 vs 1/3\n"
    )


def test_repeated_blocks_take_the_skeleton_route(capsys, tmp_path):
    # the Fano blocks twice: M_2 and M_3 have duplicate columns, so neither
    # has full rank and the oracle goes through its skeleton
    blocks = Path(FANO).read_text().split("\n", 1)[1]
    (tmp_path / "twice.blk").write_text("# 2 7 3 2\n" + blocks + blocks)
    design = str(tmp_path / "twice.blk")
    for s in ("1", "2", "3"):
        code, out, err = run(capsys, ["verify", "design", "--file", design, "--s", s])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert all(doc["penrose"].values())
        assert doc["closed_form_matches_oracle"] is (True if s == "1" else None)
    code, out, _ = run(capsys, ["survey", "--dir", str(tmp_path), "--s", "3"])
    assert code == 0
    assert json.loads(out)["designs"][0]["classes"] == {
        "i=3": ["1/2"], "i=2": ["0"], "i=1": ["0"], "i=0": ["0"]
    }
    code, out, _ = run(capsys, ["mpinv", "design", "--file", design, "--s", "3", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 14
    assert all(row.count("1/2") == 1 and row.count("0") == len(row) - 1 for row in rows)


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

    assert run(capsys, ["survey", "--dir", FANO, "--s", "1"]) == (
        2, "", f"mpinc: {FANO} is not a directory\n"
    )


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
    new, to_rat_matrix = IncidenceMatrix.__new__, IncidenceMatrix.to_rat_matrix

    def counting_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        built.append(self)
        return self

    def counting_to_rat_matrix(self):
        densified.append(self)
        return to_rat_matrix(self)

    monkeypatch.setattr(IncidenceMatrix, "__new__", counting_new)
    monkeypatch.setattr(IncidenceMatrix, "to_rat_matrix", counting_to_rat_matrix)
    assert run(capsys, argv)[0] == 0
    assert built
    assert list(map(id, densified)) == list(map(id, built))

@pytest.mark.parametrize("blocks, message", [
    (b"2 1\n", "line 1: block (2, 1) is not strictly increasing"),
    (b"0 1 2\n", "line 1: point 0 is out of range; points are 1-based"),
    (b"1 2 3\n-4 5 6\n", "line 2: point -4 is out of range; points are 1-based"),
    (b"1 2 3\n4 5 6\xe9\n", "line 2: byte 0xe9 is not ASCII"),
    # fullwidth digits, which int() would read as points
    ("１ ２\n２ ３\n１ ３\n".encode("utf-8"), "line 1: byte 0xef is not ASCII"),
    # a form feed separates points within a line; it does not end the line
    (b"# 2 4 2 1\n1 2\f3 4\n1 3\n1 4\n2 3\n2 4\n",
     "line 2: declared k = 2 but blocks have size 4"),
    # 2_3 and +1, which int() would read as 23 and 1
    (b"1 2_3\n+1 0002\n", "line 1: non-integer point in block '1 2_3'"),
    # a header's v is refused at the header, not at the first block
    (b"# 2 -7 3 1\n1 2 3\n", "line 1: declared v = -7 must be at least 1"),
], ids=["not-increasing", "zero", "negative", "not-ascii", "fullwidth-digits", "form-feed",
        "underscore", "header-v"])
def test_malformed_design_names_the_file_once(capsys, tmp_path, blocks, message):
    d = tmp_path / "designs"
    d.mkdir()
    (d / "bad.blk").write_bytes(blocks)
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
    # a streamed matrix reaches the file with the bytes it has on stdout
    for argv in (
        "build set --n 6 --r 2 --c 3 --format mtx",
        "mpinv set --n 6 --r 2 --c 3 --expand --format csv",
        "mpinv subspace --n 3 --q 2 --r 1 --c 2 --expand --format json --with-labels",
    ):
        code, stdout, _ = run(capsys, argv.split())
        assert code == 0 and stdout
        target = tmp_path / "matrix"
        code, out, _ = run(capsys, [*argv.split(), "--out", str(target)])
        assert (code, out) == (0, "")
        assert target.read_bytes() == stdout.encode("ascii"), argv


@pytest.mark.parametrize("argv, message", [
    ("mpinv subspace --n 2 --q 11 --r 1 --c 1 --expand --format csv",
     "enumeration is capped at q <= 9, got q=11"),
    ("mpinv subspace --n 2 --q 11 --r 1 --c 1 --expand --format json",
     "enumeration is capped at q <= 9, got q=11"),
    ("mpinv set --n 4 --r 1 --c 2 --expand --format mtx",
     "Matrix Market pattern output needs a 0/1 matrix; entry (0,0) = 1/3"),
])
def test_refused_matrix_writes_nothing(capsys, tmp_path, argv, message):
    # the writers refuse before the first chunk, and --out is opened only
    # after that: no file is made and an existing one is left as it was
    target = tmp_path / "refused"
    for before in (None, "kept\n"):
        if before is not None:
            target.write_text(before)
        for out_args in ([], ["--out", str(target)]):
            code, out, err = run(capsys, [*argv.split(), *out_args])
            assert (code, out, err) == (2, "", f"mpinc: {message}\n")
            if before is None:
                assert not target.exists()
            else:
                assert target.read_text() == before


def test_closed_stdout_pipe_exits_0():
    # like `| head -n 1`: the reader keeps the first line of a 2.8 MB csv
    # and closes the pipe while the writer still has rows to write
    proc = subprocess.Popen(
        [sys.executable, "-m", "mpinc", "mpinv", "set", "--n", "12", "--r", "4", "--c", "6",
         "--expand", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert first.startswith(b"1/28,") and first.endswith(b"\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_calc_into_a_closed_pipe_exits_0(unbuffered):
    # the reader is gone before calc writes its one line
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mpinc", "calc", "binomial", "7", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


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
        assert out == "".join(write_csv(rat_matrix_mod_p(expand_class_matrix(cm), p)))
