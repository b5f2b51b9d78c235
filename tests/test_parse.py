"""main parses a command that names a leaf with that leaf alone; the whole
argparse tree is the reference it must agree with, namespace for namespace
and exit for exit, byte for byte."""

import pytest

from mpinc import cli
from mpinc.errors import MpincError

FANO = "samples/fano/fano.blk"
SET = ["--n", "4", "--r", "1", "--c", "2"]
SUBSPACE = ["--n", "3", "--q", "2", "--r", "1", "--c", "2"]

# the words that name each leaf: (command, kind), (calc, func) or (survey,)
LEAVES = [
    (command, *kind)
    for command, (_, _, dest, kinds) in cli._COMMANDS.items()
    for kind in ([()] if dest is None else [(k,) for k in kinds])
]

WELL_FORMED = [
    ["build", "set", *SET],
    ["build", "subspace", *SUBSPACE, "--format", "mtx"],
    ["build", "design", "--file", FANO, "--s", "1", "--with-labels"],
    ["mpinv", "set", *SET, "--expand", "--format", "csv", "--out", "x.csv"],
    ["mpinv", "subspace", *SUBSPACE, "--mod", "5"],
    ["mpinv", "design", "--file", FANO, "--s", "2", "--t", "2"],
    ["verify", "set", *SET],
    ["verify", "subspace", *SUBSPACE, "--out", "report.json"],
    ["verify", "design", "--file", FANO, "--s", "1"],
    ["survey", "--dir", "samples/fano", "--s", "1"],
    ["calc", "binomial", "7", "3"],
    ["calc", "gaussian", "4", "2", "--q", "2"],
    ["calc", "qint", "5", "--q", "3"],
]

CORPUS = [
    # no words, help and unknown names at the top two levels
    [], ["-h"], ["--help"], ["--he"], ["-h", "verify"], ["--", "verify", "set", *SET],
    ["bogus"], [""], ["verify"], ["verify", "-h"], ["calc", "--help"], ["verify", "bogus"],
    ["verify", ""], ["calc", "set"], ["verify", "--", "set", *SET],
    # help of every leaf, alone and after other words
    *([*words, "-h"] for words in LEAVES),
    ["verify", "set", *SET, "--help"],
    # every leaf, well formed
    *WELL_FORMED,
    # values: bad ints, bad choices, a q that is not a prime power
    ["verify", "set", "--n", "x", "--r", "1", "--c", "2"],
    ["build", "set", *SET, "--format", "xml"],
    ["verify", "subspace", "--n", "3", "--q", "6", "--r", "1", "--c", "2"],
    ["verify", "subspace", "--n", "3", "--q", "two", "--r", "1", "--c", "2"],
    ["calc", "binomial", "seven", "3"],
    ["calc", "binomial", "-1", "3"],
    # missing, repeated, abbreviated and ambiguous options
    ["verify", "set", "--n", "4"],
    ["calc", "gaussian", "4", "2"],
    ["verify", "set", *SET, "--out"],
    ["verify", "set", "--n", "4", "--n", "5", "--r", "1", "--c", "2"],
    ["mpinv", "set", *SET, "--exp", "--form", "csv", "--with"],
    ["mpinv", "design", "--f", FANO, "--s", "1"],
    ["verify", "set", "--n=4", "--r=1", "--c=2"],
    ["verify", "set", "-n", "4", "--r", "1", "--c", "2"],
    # --, and words a leaf leaves over
    ["verify", "set", "--", *SET],
    ["calc", "binomial", "--", "7", "3"],
    ["verify", "set", *SET, "stray"],
    ["verify", "set", *SET, "--bogus"],
    ["build", "design", "--file", FANO, "--s", "2", "--t", "2"],
    ["calc", "binomial", "7", "3", "4"],
    ["survey", "--dir", "samples/fano", "--s", "1", "stray", "words"],
]


def outcome(parse, argv, capsys):
    """What parse(argv) gives: its namespace, or its exit code and output,
    or the MpincError a type converter raises."""
    try:
        result = ("namespace", vars(parse(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    except MpincError as exc:
        result = ("raise", type(exc), str(exc))
    return (*result, *capsys.readouterr())


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(no words)")
def test_leaf_parse_matches_the_whole_tree(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(cli.build_parser().parse_args, argv, capsys)
    assert outcome(cli._parse_args, argv, capsys) == expected


def test_every_leaf_parses_a_well_formed_command(capsys):
    named = [tuple(argv[: 1 if argv[0] == "survey" else 2]) for argv in WELL_FORMED]
    assert sorted(named) == sorted(LEAVES)
    for argv in WELL_FORMED:
        assert outcome(cli._parse_args, argv, capsys)[0] == "namespace", argv


def test_a_leaf_command_builds_no_tree(capsys):
    cli.build_parser.cache_clear()
    cli._leaf_parser.cache_clear()
    try:
        assert cli.main(["verify", "set", *SET]) == 0
        assert cli.build_parser.cache_info().currsize == 0
        assert cli._leaf_parser.cache_info().currsize == 1
        # a stray word is reported by the tree, at the top level
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "set", *SET, "stray"])
        assert exc.value.code == 2
        assert cli.build_parser.cache_info().currsize == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "mpinc: error: unrecognized arguments: stray"
    finally:
        cli.build_parser.cache_clear()
        cli._leaf_parser.cache_clear()


@pytest.mark.parametrize("command", ["build", "mpinv", "verify"])
def test_design_options_carry_the_same_help(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    kind, code, out, _ = outcome(cli._parse_args, [command, "design", "-h"], capsys)
    assert (kind, code) == ("exit", 0)
    assert "design file" in out and "subset size" in out
    assert ("design strength when the file has no header" in out) == (command != "build")
