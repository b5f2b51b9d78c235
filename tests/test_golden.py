"""The CLI's exact output, pinned: stdout, stderr and exit code of a fixed
list of commands, compared byte for byte with files under tests/golden/.

Regenerate (only when an output change is intended) from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mpinc.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FANO = "samples/fano/fano.blk"
PAIRS = "samples/pairs/pairs42.blk"

CASES = {
    # build
    "build_set_json": "build set --n 4 --r 1 --c 2",
    "build_set_csv": "build set --n 3 --r 0 --c 2 --format csv",
    "build_set_mtx": "build set --n 5 --r 2 --c 3 --format mtx",
    "build_set_labels": "build set --n 4 --r 1 --c 2 --with-labels",
    "build_subspace_labels": "build subspace --n 3 --q 2 --r 1 --c 2 --with-labels",
    "build_subspace_gf4_labels": "build subspace --n 2 --q 4 --r 1 --c 2 --with-labels",
    "build_subspace_gf8_labels": "build subspace --n 2 --q 8 --r 1 --c 2 --with-labels",
    "build_subspace_gf9_labels": "build subspace --n 2 --q 9 --r 1 --c 2 --with-labels",
    "build_subspace_mtx": "build subspace --n 4 --q 2 --r 1 --c 3 --format mtx",
    "build_design_labels": f"build design --file {FANO} --s 1 --with-labels",
    "build_design_mtx": f"build design --file {PAIRS} --s 2 --format mtx",
    # mpinv: class values
    "mpinv_set_classes": "mpinv set --n 4 --r 1 --c 2",
    "mpinv_set_classes_padded": "mpinv set --n 3 --r 2 --c 2",
    "mpinv_subspace_classes": "mpinv subspace --n 3 --q 2 --r 1 --c 2",
    "mpinv_subspace_classes_gf3": "mpinv subspace --n 4 --q 3 --r 2 --c 2",
    "mpinv_subspace_classes_gf11": "mpinv subspace --n 3 --q 11 --r 1 --c 2",
    # mpinv --expand
    "mpinv_set_expand_csv": "mpinv set --n 4 --r 1 --c 2 --expand --format csv",
    "mpinv_set_expand_json": "mpinv set --n 5 --r 2 --c 3 --expand",
    "mpinv_set_expand_labels": "mpinv set --n 4 --r 1 --c 3 --expand --with-labels",
    "mpinv_set_expand_mtx": "mpinv set --n 3 --r 1 --c 1 --expand --format mtx",
    "mpinv_subspace_expand_csv": "mpinv subspace --n 3 --q 2 --r 1 --c 2 --expand --format csv",
    "mpinv_subspace_expand_labels":
        "mpinv subspace --n 3 --q 3 --r 1 --c 2 --expand --with-labels",
    "mpinv_subspace_expand_mtx": "mpinv subspace --n 2 --q 2 --r 1 --c 1 --expand --format mtx",
    "mpinv_design_s1": f"mpinv design --file {FANO} --s 1",
    "mpinv_design_s2_csv": f"mpinv design --file {FANO} --s 2 --format csv",
    "mpinv_design_labels": f"mpinv design --file {PAIRS} --s 1 --with-labels",
    # mpinv --mod
    "mpinv_set_mod_admissible": "mpinv set --n 4 --r 1 --c 2 --mod 5",
    "mpinv_set_mod_inadmissible": "mpinv set --n 4 --r 1 --c 2 --mod 3",
    "mpinv_set_expand_mod": "mpinv set --n 4 --r 1 --c 2 --expand --format csv --mod 5",
    "mpinv_subspace_mod_admissible": "mpinv subspace --n 3 --q 2 --r 1 --c 2 --mod 5",
    "mpinv_subspace_mod_inadmissible": "mpinv subspace --n 3 --q 2 --r 1 --c 2 --mod 3",
    "mpinv_subspace_mod_q": "mpinv subspace --n 3 --q 2 --r 1 --c 2 --mod 2",
    "mpinv_subspace_expand_mod":
        "mpinv subspace --n 3 --q 2 --r 1 --c 2 --expand --format csv --mod 7",
    "mpinv_design_mod_admissible": f"mpinv design --file {FANO} --s 1 --format csv --mod 5",
    "mpinv_design_mod_inadmissible": f"mpinv design --file {FANO} --s 1 --mod 3",
    # verify
    "verify_set_right": "verify set --n 6 --r 1 --c 2",
    "verify_set_two_sided": "verify set --n 4 --r 1 --c 3",
    "verify_set_left": "verify set --n 4 --r 2 --c 3",
    "verify_set_empty": "verify set --n 3 --r 0 --c 0",
    "verify_subspace_two_sided": "verify subspace --n 3 --q 2 --r 1 --c 2",
    "verify_subspace_right": "verify subspace --n 4 --q 2 --r 1 --c 2",
    "verify_subspace_left": "verify subspace --n 2 --q 3 --r 1 --c 2",
    "verify_subspace_square_mid": "verify subspace --n 5 --q 2 --r 2 --c 3",
    "verify_design_s1": f"verify design --file {FANO} --s 1",
    "verify_design_s2": f"verify design --file {PAIRS} --s 2",
    "verify_design_s3": f"verify design --file {FANO} --s 3",
    "survey_fano": "survey --dir samples/fano --s 1",
    "survey_fano_s3": "survey --dir samples/fano --s 3",
    # refusals
    "refuse_build_q6": "build subspace --n 3 --q 6 --r 1 --c 2",
    "refuse_mpinv_q6": "mpinv subspace --n 3 --q 6 --r 1 --c 2",
    "refuse_mpinv_q6_mod": "mpinv subspace --n 3 --q 6 --r 1 --c 2 --mod 7",
    "refuse_verify_q6": "verify subspace --n 3 --q 6 --r 1 --c 2",
    "refuse_build_q1": "build subspace --n 3 --q 1 --r 1 --c 2",
    "refuse_mpinv_q1": "mpinv subspace --n 3 --q 1 --r 1 --c 2",
    "refuse_verify_q0": "verify subspace --n 3 --q 0 --r 1 --c 2",
    "refuse_mpinv_mod0": "mpinv set --n 4 --r 1 --c 2 --mod 0",
    "refuse_mpinv_mod4": "mpinv subspace --n 3 --q 2 --r 1 --c 2 --mod 4",
    "refuse_build_set_r_gt_c": "build set --n 2 --r 3 --c 1",
    "refuse_mpinv_set_r_gt_c": "mpinv set --n 4 --r 2 --c 1",
    "refuse_verify_set_r_gt_c": "verify set --n 4 --r 2 --c 1",
    "refuse_build_subspace_r_gt_c": "build subspace --n 2 --q 2 --r 2 --c 1",
    "refuse_mpinv_subspace_r_gt_c": "mpinv subspace --n 3 --q 2 --r 2 --c 1",
    "refuse_verify_subspace_c_gt_n": "verify subspace --n 2 --q 2 --r 1 --c 3",
    "refuse_mpinv_set_mod_r_gt_c": "mpinv set --n 4 --r 2 --c 1 --mod 5",
    "refuse_expand_mtx_not_01": "mpinv set --n 4 --r 1 --c 2 --expand --format mtx",
    "refuse_classes_csv": "mpinv subspace --n 3 --q 2 --r 1 --c 2 --format csv",
    "refuse_classes_labels": "mpinv set --n 4 --r 1 --c 2 --with-labels",
    "refuse_labels_csv": "build set --n 4 --r 1 --c 2 --format csv --with-labels",
}


def run_case(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="ascii"))
    assert golden["argv"] == CASES[name].split()
    got = run_case(CASES[name].split())
    assert got["exit"] == golden["exit"]
    assert got["stdout"] == golden["stdout"]
    assert got["stderr"] == golden["stderr"]


# The benchmark's emit commands print outputs too large for golden files;
# their stdout is pinned by sha256 instead.
EMIT_SHA256 = [
    ("mpinv subspace --n 6 --q 2 --r 1 --c 2 --expand --format csv",
     "9c76050c1c43e78ed1933af69178e555b127616132566e635c5524aa49f5ed60"),
    ("mpinv subspace --n 5 --q 2 --r 1 --c 3 --expand --format csv",
     "1208a99e833b4ae432d18c73fa2a1106b09b404f8cbdec8e4ffb63e241f7b17b"),
    ("build subspace --n 4 --q 4 --r 1 --c 2 --format mtx",
     "adf77c39bd0685b5e3f20176788a38aa434c5efa0de708553cebc67178224462"),
    ("build subspace --n 5 --q 2 --r 2 --c 3 --format mtx",
     "4d0aed5932765c349f7d15196bcdd823458acf9879428a95b80d59f0a205dc81"),
    ("mpinv subspace --n 4 --q 3 --r 1 --c 2 --expand --format json --with-labels",
     "87b2b42c1c8d37faf6e0acae82225251a047d27649b10e8f9b07d5f109be46fe"),
    ("mpinv set --n 12 --r 4 --c 6 --expand --format csv",
     "2fd59f6b03414da9e89380cb7ad3a00c1146a030a941db9b31f30de298e6930b"),
    ("mpinv set --n 10 --r 3 --c 5 --expand --format json --with-labels",
     "25761804db9b93d1ab16fcb9a450b158a944f90ac4969ddcd1f2d6f62740e890"),
    ("build set --n 14 --r 4 --c 6 --format mtx",
     "4e4b1bebb00a853c6203a8d12b2fa13990158911789652a7fab77586b3249d82"),
    ("build set --n 16 --r 3 --c 5 --format mtx",
     "fbbc267a5345322bb31324cbcb817f4118613e1ed99fa1dd1cd1da376546dcfd"),
]


@pytest.mark.parametrize("command, digest", EMIT_SHA256)
def test_emit_output_sha256(command, digest):
    got = run_case(command.split())
    assert (got["exit"], got["stderr"]) == (0, "")
    assert hashlib.sha256(got["stdout"].encode("ascii")).hexdigest() == digest


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, command in CASES.items():
        doc = {"argv": command.split(), **run_case(command.split())}
        text = json.dumps(doc, indent=1) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="ascii")
