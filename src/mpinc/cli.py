"""Command-line surface: build incidence matrices, emit closed-form inverses,
verify them against the oracle, survey design collections, and expose the
scalar combinatorial functions.

Exit codes: 0 success, 1 verification failure, 2 usage/input error
(running out of memory included), 3 characteristic inadmissibility.
"""

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import formats
from .combinat import all_subsets, binomial, gaussian_binomial, q_integer
from .designs import (
    build_design_incidence,
    has_closed_form,
    m1_mpinv_closed_form,
    ms_mpinv_oracle,
    parse_design,
    survey_designs,
    validated_design,
)
from .errors import MpincError, NotReducibleError
from .gf import factor_prime_power, render_element
from .linalg import (
    first_difference,
    penrose_identities,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from .rationals import is_prime, rat_mod_p
from .subspaces import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    expand_class_matrix,
    labels,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CHARACTERISTIC = 3


def _emit(chunks, out_path):
    """Write an iterable of text chunks to the --out file or to stdout as
    they come. The file is opened only now, after the writer has made every
    refusal, so a refused command leaves no file behind."""
    if out_path:
        with open(out_path, "w", encoding="ascii") as f:
            f.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (as with `| head`): point stdout at devnull so
        # the flush at exit cannot raise again, and end as if all was read
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _render_labels(labels):
    rendered = []
    for label in labels:
        if hasattr(label, "basis"):
            f = label.field
            rendered.append([[render_element(x, f) for x in row] for row in label.basis])
        else:
            rendered.append(list(label))
    return rendered


def _emit_matrix(M, args, row_labels, col_labels):
    fmt = args.format
    if fmt == "csv":
        chunks = formats.write_csv(M)
    elif fmt == "mtx":
        chunks = formats.write_mtx(M)
    elif args.with_labels:
        chunks = formats.write_json(M, _render_labels(row_labels), _render_labels(col_labels))
    else:
        chunks = formats.write_json(M)
    _emit(chunks, args.out)


def _check_labels(args):
    """Refuse --with-labels without JSON before the command does any work."""
    if args.with_labels and args.format != "json":
        raise MpincError("--with-labels requires --format json")


def _class_values_json(values):
    doc = {f"i={i}": str(values[i]) for i in range(len(values) - 1, -1, -1)}
    return json.dumps(doc, indent=2) + "\n"


def _load_design(path, t):
    D = parse_design(path)
    if t is None and D.declared is not None:
        t = D.declared[0]
    if t is None:
        raise MpincError(
            f"{D.name}: no '# t v k lambda' header; pass --t explicitly"
        )
    return validated_design(D, t)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_build(args):
    _check_labels(args)
    if args.kind == "design":
        M = build_design_incidence(parse_design(args.file), args.s)
    else:
        M = build_incidence(args.n, args.q, args.r, args.c)
    _emit_matrix(M, args, row_labels=M.row_labels, col_labels=M.col_labels)
    return EXIT_OK


def _cmd_mpinv(args):
    mod = args.mod
    if mod is not None and not is_prime(mod):
        raise MpincError(f"--mod {mod} is not a prime")
    class_values = args.kind != "design" and not args.expand
    if class_values:
        if args.format != "json":
            raise MpincError("class values are JSON only; use --expand for csv/mtx")
        if args.with_labels:
            raise MpincError("--with-labels needs a matrix output; add --expand")
    _check_labels(args)
    row_labels = col_labels = None
    if args.kind == "design":
        D = _load_design(args.file, args.t)
        if has_closed_form(D, args.s):
            X = m1_mpinv_closed_form(D)
        else:
            X = ms_mpinv_oracle(D, args.s)
        if mod is not None:
            X = rat_matrix_mod_p(X, mod)
        if args.with_labels:
            row_labels, col_labels = D.blocks, all_subsets(D.v, args.s)
    else:
        n, q, r, c = args.n, args.q, args.r, args.c
        cm = class_matrix(n, q, r, c)
        if mod is not None:
            obstruction = char_p_obstruction(n, q, r, c, mod)
            if obstruction is not None:
                raise NotReducibleError(
                    f"closed form not admissible: p divides {obstruction}"
                )
            # reduce the r + 1 class values once; expand then reads residues
            cm = cm._replace(values=tuple(rat_mod_p(x, mod) for x in cm.values))
        if class_values:
            _emit([_class_values_json(cm.values)], args.out)
            return EXIT_OK
        # the writers render the class values straight into the rows
        X = cm
        if args.with_labels:
            row_labels, col_labels = labels(n, q, c), labels(n, q, r)

    _emit_matrix(X, args, row_labels=row_labels, col_labels=col_labels)
    return EXIT_OK


def _verify_failure(message):
    print(message, file=sys.stderr)
    return EXIT_VERIFY


def _cmd_verify(args):
    """Run the oracle, certify an inverse with the four Penrose conditions,
    compare the closed form with the oracle, check the regime identities and
    report. Each kind supplies the matrix, the inverse it certifies (None:
    the oracle's), its closed form (None if it has none), its regime
    identities and its report; the report's verdicts hold, as failures
    return first.
    """
    if args.kind == "design":
        D = _load_design(args.file, args.t)
        M = build_design_incidence(D, args.s).to_rat_matrix()
        certified, inverse = None, f"the oracle inverse of M_{args.s}"
        closed = m1_mpinv_closed_form(D) if has_closed_form(D, args.s) else None
        regimes = {}
        head = {"kind": "design", "file": D.name, "t": D.t, "v": D.v, "k": D.k,
                "lambda": D.lam, "s": args.s}
        tail = {"closed_form_matches_oracle": None if closed is None else True}
    else:
        n, q, r, c = args.n, args.q, args.r, args.c
        M = build_incidence(n, q, r, c).to_rat_matrix()
        certified = closed = expand_class_matrix(class_matrix(n, q, r, c))
        inverse = "the closed-form inverse"
        # name -> which identity verdict of penrose_identities it reads
        regimes = {}
        if n >= r + c:
            regimes["MM*=I"] = 0
        if n <= r + c:
            regimes["M*M=I"] = 1
        # a set report (q = 1) carries no field order
        head = {"kind": args.kind, "n": n, **({"q": q} if q != 1 else {}), "r": r, "c": c}
        tail = {
            "matches_oracle": True,
            "regime": "both" if len(regimes) == 2 else next(iter(regimes)),
            "regime_identities_hold": True,
        }
    oracle = pseudoinverse_oracle(M)
    report, *is_identity = penrose_identities(M, oracle if certified is None else certified)
    conditions = report._asdict()
    for name, holds in conditions.items():
        if not holds:
            return _verify_failure(f"{name} fails for {inverse}")
    diff = None if closed is None else first_difference(closed, oracle)
    if diff is not None:
        return _verify_failure(
            f"closed form differs from oracle at entry {diff}: "
            f"{closed.at(*diff)} vs {oracle.at(*diff)}"
        )
    for name, k in regimes.items():
        if not is_identity[k]:
            return _verify_failure(f"regime identity {name} fails")
    doc = {**head, "penrose": conditions, **tail, "ok": True}
    _emit([json.dumps(doc, indent=2) + "\n"], args.out)
    return EXIT_OK


def _cmd_survey(args):
    directory = Path(args.dir)
    if not directory.is_dir():
        raise MpincError(f"{args.dir} is not a directory")
    files = sorted(
        p for p in directory.iterdir() if p.is_file() and not p.name.startswith(".")
    )
    if not files:
        raise MpincError(f"{args.dir} contains no design files")
    report = survey_designs([_load_design(path, args.t) for path in files], args.s)
    _emit([json.dumps(report.to_json_dict(), indent=2) + "\n"], args.out)
    return EXIT_OK


def _cmd_calc(args):
    if args.func == "binomial":
        value = binomial(args.n, args.m)
    elif args.func == "gaussian":
        value = gaussian_binomial(args.n, args.m, args.q)
    else:
        value = q_integer(args.n, args.q)
    _emit([f"{value}\n"], None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_output_options(p):
    p.add_argument("--format", choices=("csv", "json", "mtx"), default="json",
                   help="output format (default json)")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.add_argument("--with-labels", action="store_true", dest="with_labels",
                   help="include row/column index labels (json only)")


def _field_order(text):
    """--q of the subspace kind: a prime power (the set kind is q = 1).

    A q that is not a prime power raises InvalidFieldError, which main
    reports with exit 2.
    """
    try:
        q = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    factor_prime_power(q)
    return q


# command -> its help, its run function, the dest its second word sets and
# the leaves that word names, in help order; survey is a leaf itself
_FAMILY = ("set", "subspace", "design")
_COMMANDS = {
    "build": ("emit an incidence matrix", _cmd_build, "kind", _FAMILY),
    "mpinv": ("emit the closed-form Moore-Penrose inverse", _cmd_mpinv, "kind", _FAMILY),
    "verify": ("check closed form against the oracle", _cmd_verify, "kind", _FAMILY),
    "survey": ("survey M_s inverses across designs", _cmd_survey, None, ()),
    "calc": ("scalar combinatorial functions", _cmd_calc, "func",
             ("binomial", "gaussian", "qint")),
}


def _fill_leaf(p, command, kind=None):
    """Add the arguments of the leaf `mpinc command kind` to p and return p:
    the one definition that the whole tree and a leaf built alone share.

    set and subspace share one family: both carry q, which is 1 for sets.
    """
    if command == "calc":
        p.add_argument("n", type=int)
        if kind != "qint":
            p.add_argument("m", type=int)
        if kind != "binomial":
            p.add_argument("--q", type=int, required=True)
    elif command == "survey":
        p.add_argument("--dir", required=True, help="directory of design files")
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", type=int,
                       help="design strength when files have no header")
        p.add_argument("--out")
    else:
        if kind == "design":
            p.add_argument("--file", required=True, help="design file")
            p.add_argument("--s", type=int, required=True, help="subset size")
            if command != "build":
                p.add_argument("--t", type=int,
                               help="design strength when the file has no header")
        else:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--r", type=int, required=True)
            p.add_argument("--c", type=int, required=True)
            if kind == "set":
                p.set_defaults(q=1)
            else:
                p.add_argument("--q", type=_field_order, required=True,
                               help="prime power field order")
            if command == "mpinv":
                p.add_argument("--expand", action="store_true",
                               help="emit the full matrix instead of class values")
        if command == "verify":
            p.add_argument("--out", help="write the report to this path")
        else:
            if command == "mpinv":
                p.add_argument("--mod", type=int, metavar="P",
                               help="reduce entries to GF(P); exits 3 when inadmissible")
            _add_output_options(p)
    p.set_defaults(run=_COMMANDS[command][1])
    return p


@cache
def build_parser():
    """The whole mpinc argument parser, built once per process and shared.

    main parses a command that names a leaf with that leaf alone; the tree
    parses, and reports, every other argv.
    """
    parser = argparse.ArgumentParser(
        prog="mpinc",
        description="Exact Moore-Penrose inverses of set, subspace, and design "
                    "incidence matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, dest, kinds) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if dest is None:
            _fill_leaf(p, command)
            continue
        leaves = p.add_subparsers(dest=dest, required=True)
        for kind in kinds:
            _fill_leaf(leaves.add_parser(kind), command, kind)
    return parser


@cache
def _leaf_parser(*words):
    """The leaf named by words, (command, kind) or (survey,), built alone
    with the prog it has in the whole tree, once per process."""
    return _fill_leaf(argparse.ArgumentParser(prog=" ".join(("mpinc", *words))), *words)


def _parse_args(argv):
    """The namespace build_parser().parse_args(argv) gives, or its exit.

    When the first words name a leaf, that leaf alone parses the rest and
    the words themselves are the command and kind (func for calc): the
    tree's upper levels only hand the rest down. Any other argv, and one
    that leaves words over (argparse reports those at the top level), goes
    through the whole tree.
    """
    words = sys.argv[1:] if argv is None else list(argv)
    spec = _COMMANDS.get(words[0]) if words else None
    if spec is not None:
        *_, dest, kinds = spec
        depth = 1 if dest is None else 2 if len(words) > 1 and words[1] in kinds else 0
        if depth:
            args, extras = _leaf_parser(*words[:depth]).parse_known_args(words[depth:])
            if not extras:
                args.command = words[0]
                if dest is not None:
                    setattr(args, dest, words[1])
                return args
    return build_parser().parse_args(words)


def main(argv=None):
    try:
        args = _parse_args(argv)
        return args.run(args)
    except NotReducibleError as exc:
        print(f"mpinc: {exc}", file=sys.stderr)
        return EXIT_CHARACTERISTIC
    except (MpincError, OSError) as exc:
        print(f"mpinc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # too large for this machine is an input error, not a failed check
        print("mpinc: out of memory", file=sys.stderr)
        return EXIT_USAGE
