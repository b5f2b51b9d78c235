"""Command-line surface: build incidence matrices, emit closed-form inverses,
verify them against the oracle, survey design collections, and expose the
scalar combinatorial functions.

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 characteristic inadmissibility.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from fractions import Fraction
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
from .errors import CharacteristicError, MpincError, NotReducibleError
from .gf import factor_prime_power, render_element
from .linalg import (
    first_difference,
    penrose_check,
    penrose_products,
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


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _render_labels(labels):
    rendered = []
    for label in labels:
        if hasattr(label, "basis"):
            f = label.field
            rendered.append(
                [[render_element(x, f) for x in label.basis.row(i)]
                 for i in range(label.basis.rows)]
            )
        else:
            rendered.append(list(label))
    return rendered


def _emit_matrix(M, args, row_labels=None, col_labels=None):
    fmt = args.format
    if args.with_labels and fmt != "json":
        raise MpincError("--with-labels requires --format json")
    if fmt == "csv":
        text = formats.write_csv(M)
    elif fmt == "mtx":
        text = formats.write_mtx(M)
    else:
        kwargs = {}
        if args.with_labels:
            if row_labels is not None:
                kwargs["row_labels"] = _render_labels(row_labels)
            if col_labels is not None:
                kwargs["col_labels"] = _render_labels(col_labels)
        text = formats.write_json(M, **kwargs)
    _emit(text, args.out)


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
    if args.kind == "design":
        D = _load_design(args.file, args.t)
        if has_closed_form(D, args.s):
            X = m1_mpinv_closed_form(D)
        else:
            X = ms_mpinv_oracle(D, args.s)
        if mod is not None:
            X = rat_matrix_mod_p(X, mod)
        row_labels, col_labels = D.blocks, all_subsets(D.v, args.s)
    else:
        n, q, r, c = args.n, args.q, args.r, args.c
        cm = class_matrix(n, q, r, c)
        if mod is not None:
            obstruction = char_p_obstruction(n, q, r, c, mod)
            if obstruction is not None:
                raise CharacteristicError(
                    f"closed form not admissible: p divides {obstruction}"
                )
            # reduce the r + 1 class values once; expand then reads residues
            cm = replace(cm, values=tuple(Fraction(rat_mod_p(x, mod)) for x in cm.values))
        if not args.expand:
            if args.format != "json":
                raise MpincError("class values are JSON only; use --expand for csv/mtx")
            if args.with_labels:
                raise MpincError("--with-labels needs a matrix output; add --expand")
            _emit(_class_values_json(cm.values), args.out)
            return EXIT_OK
        # the writers render the class values straight into the rows
        X = cm
        row_labels, col_labels = labels(n, q, c), labels(n, q, r)

    _emit_matrix(X, args, row_labels=row_labels, col_labels=col_labels)
    return EXIT_OK


def _verify_failure(message):
    print(message, file=sys.stderr)
    return EXIT_VERIFY


def _penrose_failure(report, inverse):
    """Print the first Penrose condition that fails and return EXIT_VERIFY,
    or None when all four hold.
    """
    for name, holds in asdict(report).items():
        if not holds:
            return _verify_failure(f"{name} fails for {inverse}")
    return None


def _oracle_mismatch(closed, oracle):
    """Print where the closed form and the oracle first differ and return
    EXIT_VERIFY, or None when they are equal.
    """
    diff = first_difference(closed, oracle)
    if diff is None:
        return None
    return _verify_failure(
        f"closed form differs from oracle at entry {diff}: "
        f"{closed.at(*diff)} vs {oracle.at(*diff)}"
    )


def _cmd_verify(args):
    if args.kind == "design":
        return _cmd_verify_design(args)
    n, q, r, c = args.n, args.q, args.r, args.c
    M = build_incidence(n, q, r, c).to_rat_matrix()
    # a set report (q = 1) carries no field order
    params = {"n": n, "q": q, "r": r, "c": c} if q != 1 else {"n": n, "r": r, "c": c}

    X = expand_class_matrix(class_matrix(n, q, r, c))
    report, MX, XM = penrose_products(M, X)
    failure = _penrose_failure(report, "the closed-form inverse")
    if failure is None:
        failure = _oracle_mismatch(X, pseudoinverse_oracle(M))
    if failure is not None:
        return failure
    identities = {}
    if n >= r + c:
        identities["MM*=I"] = MX.is_identity()
    if n <= r + c:
        identities["M*M=I"] = XM.is_identity()
    for name, ok in identities.items():
        if not ok:
            return _verify_failure(f"regime identity {name} fails")
    regime = "both" if len(identities) == 2 else next(iter(identities))
    doc = {
        "kind": args.kind,
        **params,
        "penrose": asdict(report),
        "matches_oracle": True,
        "regime": regime,
        "regime_identities_hold": True,
        "ok": True,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_verify_design(args):
    D = _load_design(args.file, args.t)
    M = build_design_incidence(D, args.s).to_rat_matrix()
    X = pseudoinverse_oracle(M)
    report = penrose_check(M, X)
    failure = _penrose_failure(report, f"the oracle inverse of M_{args.s}")
    if failure is not None:
        return failure
    closed_matches = None
    if has_closed_form(D, args.s):
        failure = _oracle_mismatch(m1_mpinv_closed_form(D), X)
        if failure is not None:
            return failure
        closed_matches = True
    doc = {
        "kind": "design",
        "file": D.name,
        "t": D.t,
        "v": D.v,
        "k": D.k,
        "lambda": D.lam,
        "s": args.s,
        "penrose": asdict(report),
        "closed_form_matches_oracle": closed_matches,
        "ok": True,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
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
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_calc(args):
    if args.func == "binomial":
        print(binomial(args.n, args.m))
    elif args.func == "gaussian":
        print(gaussian_binomial(args.n, args.m, args.q))
    else:
        print(q_integer(args.n, args.q))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_output_options(p, formats_=("csv", "json", "mtx")):
    p.add_argument("--format", choices=formats_, default="json",
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


def _add_kinds(command):
    """The set, subspace and design subparsers of one command, in that order.

    set and subspace share one family: both carry q, which is 1 for sets.
    """
    kinds = command.add_subparsers(dest="kind", required=True)
    p_set, p_subspace = kinds.add_parser("set"), kinds.add_parser("subspace")
    for pk in (p_set, p_subspace):
        pk.add_argument("--n", type=int, required=True)
        pk.add_argument("--r", type=int, required=True)
        pk.add_argument("--c", type=int, required=True)
    p_set.set_defaults(q=1)
    p_subspace.add_argument("--q", type=_field_order, required=True,
                            help="prime power field order")
    return p_set, p_subspace, kinds.add_parser("design")


@cache
def build_parser():
    """The mpinc argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="mpinc",
        description="Exact Moore-Penrose inverses of set, subspace, and design "
                    "incidence matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    *family, p_design = _add_kinds(sub.add_parser("build", help="emit an incidence matrix"))
    p_design.add_argument("--file", required=True, help="design file")
    p_design.add_argument("--s", type=int, required=True, help="subset size")
    for pk in (*family, p_design):
        _add_output_options(pk)
        pk.set_defaults(run=_cmd_build)

    *family, p_design = _add_kinds(
        sub.add_parser("mpinv", help="emit the closed-form Moore-Penrose inverse")
    )
    p_design.add_argument("--file", required=True, help="design file")
    p_design.add_argument("--s", type=int, required=True, help="subset size")
    p_design.add_argument("--t", type=int, help="design strength when the file has no header")
    for pk in (*family, p_design):
        pk.add_argument("--expand", action="store_true",
                        help="emit the full matrix instead of class values")
        pk.add_argument("--mod", type=int, metavar="P",
                        help="reduce entries to GF(P); exits 3 when inadmissible")
        _add_output_options(pk)
        pk.set_defaults(run=_cmd_mpinv)

    *family, p_design = _add_kinds(
        sub.add_parser("verify", help="check closed form against the oracle")
    )
    p_design.add_argument("--file", required=True)
    p_design.add_argument("--s", type=int, required=True)
    p_design.add_argument("--t", type=int)
    for pk in (*family, p_design):
        pk.add_argument("--out", help="write the report to this path")
        pk.set_defaults(run=_cmd_verify)

    p_survey = sub.add_parser("survey", help="survey M_s inverses across designs")
    p_survey.add_argument("--dir", required=True, help="directory of design files")
    p_survey.add_argument("--s", type=int, required=True)
    p_survey.add_argument("--t", type=int,
                          help="design strength when files have no header")
    p_survey.add_argument("--out")
    p_survey.set_defaults(run=_cmd_survey)

    p_calc = sub.add_parser("calc", help="scalar combinatorial functions")
    calc_kinds = p_calc.add_subparsers(dest="func", required=True)
    pc = calc_kinds.add_parser("binomial")
    pc.add_argument("n", type=int)
    pc.add_argument("m", type=int)
    pc.set_defaults(run=_cmd_calc)
    pc = calc_kinds.add_parser("gaussian")
    pc.add_argument("n", type=int)
    pc.add_argument("m", type=int)
    pc.add_argument("--q", type=int, required=True)
    pc.set_defaults(run=_cmd_calc)
    pc = calc_kinds.add_parser("qint")
    pc.add_argument("n", type=int)
    pc.add_argument("--q", type=int, required=True)
    pc.set_defaults(run=_cmd_calc)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (CharacteristicError, NotReducibleError) as exc:
        print(f"mpinc: {exc}", file=sys.stderr)
        return EXIT_CHARACTERISTIC
    except MpincError as exc:
        print(f"mpinc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"mpinc: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
