"""Command-line surface: build incidence matrices, emit closed-form inverses,
verify them against the oracle, survey design collections, and expose the
scalar combinatorial functions.

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 characteristic inadmissibility.
"""

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import formats
from .combinat import binomial, gaussian_binomial, q_integer
from .designs import (
    build_design_incidence,
    m1_mpinv_closed_form,
    ms_mpinv_oracle,
    parse_design,
    survey_designs,
    validated_design,
)
from .errors import CharacteristicError, MpincError, NotReducibleError
from .gf import render_element
from .linalg import (
    RatMatrix,
    first_difference,
    penrose_check,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from .rationals import is_prime, rat_mod_p
from .subsets import (
    build_set_incidence,
    char_p_admissible_set,
    char_p_obstruction_set,
    expand_class_matrix,
    set_class_matrix,
)
from .subspaces import (
    build_subspace_incidence,
    char_p_admissible_subspace,
    char_p_obstruction_subspace,
    expand_qclass_matrix,
    subspace_class_matrix,
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
        first = label
        if hasattr(label, "basis"):
            f = label.field
            rendered.append(
                [[render_element(x, f) for x in label.basis.row(i)]
                 for i in range(label.basis.rows)]
            )
        else:
            rendered.append(list(first))
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


def _class_values_json(values, mod=None):
    doc = {}
    for i in range(len(values) - 1, -1, -1):
        x = values[i]
        doc[f"i={i}"] = str(rat_mod_p(x, mod).value) if mod is not None else str(x)
    return json.dumps(doc, indent=2) + "\n"


def _load_design(args):
    D = parse_design(args.file)
    t = args.t
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
    if args.kind == "set":
        M = build_set_incidence(args.n, args.r, args.c)
    elif args.kind == "subspace":
        M = build_subspace_incidence(args.n, args.q, args.r, args.c)
    else:
        D = parse_design(args.file)
        M = build_design_incidence(D, args.s)
    _emit_matrix(M, args, row_labels=M.row_labels, col_labels=M.col_labels)
    return EXIT_OK


def _check_admissible(admissible, obstruction):
    if not admissible:
        raise CharacteristicError(f"closed form not admissible: p divides {obstruction}")


def _cmd_mpinv(args):
    mod = args.mod
    if mod is not None and not is_prime(mod):
        raise MpincError(f"--mod {mod} is not a prime")
    if args.kind == "set":
        if mod is not None:
            _check_admissible(
                char_p_admissible_set(args.n, args.r, args.c, mod),
                char_p_obstruction_set(args.n, args.r, args.c, mod),
            )
        cm = set_class_matrix(args.n, args.r, args.c)
        if not args.expand:
            if args.format != "json":
                raise MpincError("class values are JSON only; use --expand for csv/mtx")
            if args.with_labels:
                raise MpincError("--with-labels needs a matrix output; add --expand")
            _emit(_class_values_json(cm.values, mod), args.out)
            return EXIT_OK
        X = expand_class_matrix(cm)
        M = build_set_incidence(args.n, args.r, args.c)
        row_labels, col_labels = M.col_labels, M.row_labels
    elif args.kind == "subspace":
        if mod is not None:
            _check_admissible(
                char_p_admissible_subspace(args.n, args.q, args.r, args.c, mod),
                char_p_obstruction_subspace(args.n, args.q, args.r, args.c, mod),
            )
        qcm = subspace_class_matrix(args.n, args.q, args.r, args.c)
        if not args.expand:
            if args.format != "json":
                raise MpincError("class values are JSON only; use --expand for csv/mtx")
            if args.with_labels:
                raise MpincError("--with-labels needs a matrix output; add --expand")
            _emit(_class_values_json(qcm.values, mod), args.out)
            return EXIT_OK
        X = expand_qclass_matrix(qcm)
        M = build_subspace_incidence(args.n, args.q, args.r, args.c)
        row_labels, col_labels = M.col_labels, M.row_labels
    else:
        D = _load_design(args)
        if args.s == 1 and D.t >= 2 and D.v > D.k:
            X = m1_mpinv_closed_form(D)
        else:
            X = ms_mpinv_oracle(D, args.s)
        M = build_design_incidence(D, args.s)
        row_labels, col_labels = M.col_labels, M.row_labels

    if mod is not None:
        try:
            X = rat_matrix_mod_p(X, mod)
        except NotReducibleError as exc:
            raise CharacteristicError(str(exc))
    _emit_matrix(X, args, row_labels=row_labels, col_labels=col_labels)
    return EXIT_OK


def _verify_failure(message):
    print(message, file=sys.stderr)
    return EXIT_VERIFY


def _cmd_verify(args):
    if args.kind == "set":
        M = build_set_incidence(args.n, args.r, args.c)
        X = expand_class_matrix(set_class_matrix(args.n, args.r, args.c))
        params = {"n": args.n, "r": args.r, "c": args.c}
        r_plus_c = args.r + args.c
    elif args.kind == "subspace":
        M = build_subspace_incidence(args.n, args.q, args.r, args.c)
        X = expand_qclass_matrix(subspace_class_matrix(args.n, args.q, args.r, args.c))
        params = {"n": args.n, "q": args.q, "r": args.r, "c": args.c}
        r_plus_c = args.r + args.c
    else:
        return _cmd_verify_design(args)

    A = M.to_rat_matrix()
    report = penrose_check(A, X)
    for name in ("cond1", "cond2", "cond3", "cond4"):
        if not getattr(report, name):
            return _verify_failure(f"{name} fails for the closed-form inverse")
    oracle = pseudoinverse_oracle(A)
    diff = first_difference(X, oracle)
    if diff is not None:
        return _verify_failure(
            f"closed form differs from oracle at entry {diff}: "
            f"{X.at(*diff)} vs {oracle.at(*diff)}"
        )
    identities = {}
    if args.n >= r_plus_c:
        identities["MM*=I"] = (A @ X).is_identity()
    if args.n <= r_plus_c:
        identities["M*M=I"] = (X @ A).is_identity()
    for name, ok in identities.items():
        if not ok:
            return _verify_failure(f"regime identity {name} fails")
    regime = "both" if len(identities) == 2 else next(iter(identities))
    doc = {
        "kind": args.kind,
        **params,
        "penrose": {
            "cond1": report.cond1,
            "cond2": report.cond2,
            "cond3": report.cond3,
            "cond4": report.cond4,
        },
        "matches_oracle": True,
        "regime": regime,
        "regime_identities_hold": True,
        "ok": True,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_verify_design(args):
    D = _load_design(args)
    M = build_design_incidence(D, args.s).to_rat_matrix()
    X = ms_mpinv_oracle(D, args.s)
    report = penrose_check(M, X)
    for name in ("cond1", "cond2", "cond3", "cond4"):
        if not getattr(report, name):
            return _verify_failure(f"{name} fails for the oracle inverse of M_{args.s}")
    closed_matches = None
    if args.s == 1 and D.t >= 2 and D.v > D.k:
        closed = m1_mpinv_closed_form(D)
        diff = first_difference(closed, X)
        if diff is not None:
            return _verify_failure(
                f"closed form differs from oracle at entry {diff}: "
                f"{closed.at(*diff)} vs {X.at(*diff)}"
            )
        closed_matches = True
    doc = {
        "kind": "design",
        "file": D.name,
        "t": D.t,
        "v": D.v,
        "k": D.k,
        "lambda": D.lam,
        "s": args.s,
        "penrose": {
            "cond1": report.cond1,
            "cond2": report.cond2,
            "cond3": report.cond3,
            "cond4": report.cond4,
        },
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
    designs = []
    for path in files:
        try:
            D = parse_design(path)
            t = args.t
            if t is None and D.declared is not None:
                t = D.declared[0]
            if t is None:
                raise MpincError("no '# t v k lambda' header; pass --t explicitly")
            designs.append(validated_design(D, t))
        except MpincError as exc:
            raise MpincError(f"{path.name}: {exc}")
    report = survey_designs(designs, args.s)
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


def _add_set_params(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=int, required=True)


def _add_subspace_params(p):
    _add_set_params(p)
    p.add_argument("--q", type=int, required=True, help="prime power field order")


@cache
def build_parser():
    """The mpinc argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="mpinc",
        description="Exact Moore-Penrose inverses of set, subspace, and design "
                    "incidence matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit an incidence matrix")
    build_kinds = p_build.add_subparsers(dest="kind", required=True)
    for kind in ("set", "subspace", "design"):
        pk = build_kinds.add_parser(kind)
        if kind == "set":
            _add_set_params(pk)
        elif kind == "subspace":
            _add_subspace_params(pk)
        else:
            pk.add_argument("--file", required=True, help="design file")
            pk.add_argument("--s", type=int, required=True, help="subset size")
        _add_output_options(pk)
        pk.set_defaults(run=_cmd_build)

    p_mpinv = sub.add_parser("mpinv", help="emit the closed-form Moore-Penrose inverse")
    mpinv_kinds = p_mpinv.add_subparsers(dest="kind", required=True)
    for kind in ("set", "subspace", "design"):
        pk = mpinv_kinds.add_parser(kind)
        if kind == "set":
            _add_set_params(pk)
        elif kind == "subspace":
            _add_subspace_params(pk)
        else:
            pk.add_argument("--file", required=True, help="design file")
            pk.add_argument("--s", type=int, required=True, help="subset size")
            pk.add_argument("--t", type=int, help="design strength when the file has no header")
        pk.add_argument("--expand", action="store_true",
                        help="emit the full matrix instead of class values")
        pk.add_argument("--mod", type=int, metavar="P",
                        help="reduce entries to GF(P); exits 3 when inadmissible")
        _add_output_options(pk)
        pk.set_defaults(run=_cmd_mpinv)

    p_verify = sub.add_parser("verify", help="check closed form against the oracle")
    verify_kinds = p_verify.add_subparsers(dest="kind", required=True)
    for kind in ("set", "subspace", "design"):
        pk = verify_kinds.add_parser(kind)
        if kind == "set":
            _add_set_params(pk)
        elif kind == "subspace":
            _add_subspace_params(pk)
        else:
            pk.add_argument("--file", required=True)
            pk.add_argument("--s", type=int, required=True)
            pk.add_argument("--t", type=int)
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
    args = parser.parse_args(argv)
    try:
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
