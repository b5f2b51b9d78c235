"""One round of a workload in a fresh interpreter, so mpinc's caches start cold.

    python3 perfbench/worker.py --workload W --seed S --workdir DIR --t0 T
        [--trace] [--setup-only]
    python3 perfbench/worker.py --replay ARGV_JSON

The round imports mpinc, writes its inputs into DIR and then runs the
workload's operations one after another. Untraced, each operation goes
through `mpinc.cli.main` in this process (or a fresh `python -m mpinc`
process on emit). Traced, the same work is replayed one public mpinc
function at a time, in the order the CLI calls them, with a perf_counter
span around each call; on emit each command is replayed in a fresh process
(`--replay`). Outputs are checked after the last operation, outside the
timed region. The last line of stdout is one JSON object for run.py.

t0 is the time.monotonic() reading taken by run.py just before it started
this process; monotonic time is shared by all processes of the machine.
"""

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import expect
from workloads import IN_PROCESS, OPS, SURVEY_COPIES, SURVEY_DESIGNS, write_designs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
COMMAND_TIMEOUT_S = 120


class Spans:
    """Seconds per layer, summed over every call in a round."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    @contextmanager
    def __call__(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


def import_mpinc():
    """Import mpinc.cli from this checkout's src/ and time it."""
    start = time.perf_counter()
    from mpinc import cli
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"mpinc imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def argv_for(op, workdir, index):
    """The command line of op; survey reads, and emit writes, inside workdir."""
    if op.verb == "survey":
        return ["survey", "--dir", str(Path(workdir) / op.design), "--s", str(op.s)]
    if op.verb in ("expand", "build"):
        return [*op.argv, "--out", str(Path(workdir) / f"out{index}.{op.fmt}")]
    return list(op.argv)


# ---------------------------------------------------------------------------
# untraced: the CLI as a user runs it

def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def spawn_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "mpinc", *argv], stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, None


# ---------------------------------------------------------------------------
# traced: the CLI's calls replayed one public function at a time

def replay_verify(argv, spans):
    """cli._cmd_verify for a set or subspace, with a span per call."""
    from mpinc import cli, linalg, subsets, subspaces

    with spans("cli.parse_s"):
        args = cli.build_parser().parse_args(argv)
    n, r, c = args.n, args.r, args.c
    if args.kind == "set":
        with spans("subsets.build_s"):
            M = subsets.build_set_incidence(n, r, c)
        with spans("subsets.expand_s"):
            X = subsets.expand_class_matrix(subsets.set_class_matrix(n, r, c))
        params = {"n": n, "r": r, "c": c}
    else:
        q = args.q
        with spans("subspaces.enumerate_s"):
            subspaces.enumerate_subspaces(n, q, r)
            subspaces.enumerate_subspaces(n, q, c)
        with spans("subspaces.build_s"):
            M = subspaces.build_subspace_incidence(n, q, r, c)
        with spans("subspaces.expand_s"):
            X = subspaces.expand_qclass_matrix(subspaces.subspace_class_matrix(n, q, r, c))
        spans.counts["subspaces.pairs_build"] += M.rows * M.cols
        spans.counts["subspaces.pairs_expand"] += X.rows * X.cols
        params = {"n": n, "q": q, "r": r, "c": c}
    with spans("linalg.dense_s"):
        A = M.to_rat_matrix()
    with spans("linalg.penrose_s"):
        report = linalg.penrose_check(A, X)
    if not report.all_ok:
        return 1, None
    with spans("linalg.oracle_s"):
        oracle = linalg.pseudoinverse_oracle(A)
    with spans("linalg.compare_s"):
        diff = linalg.first_difference(X, oracle)
    if diff is not None:
        return 1, None
    identities = {}
    with spans("linalg.identity_s"):
        if n >= r + c:
            identities["MM*=I"] = (A @ X).is_identity()
        if n <= r + c:
            identities["M*M=I"] = (X @ A).is_identity()
    if not all(identities.values()):
        return 1, None
    with spans("cli.report_s"):
        doc = {
            "kind": args.kind, **params,
            "penrose": {f"cond{k}": getattr(report, f"cond{k}") for k in range(1, 5)},
            "matches_oracle": True,
            "regime": "both" if len(identities) == 2 else next(iter(identities)),
            "regime_identities_hold": True,
            "ok": True,
        }
        text = json.dumps(doc, indent=2) + "\n"
    return 0, text


def replay_survey(argv, spans):
    """cli._cmd_survey and designs.survey_designs, with a span per call."""
    from mpinc import cli, designs, linalg

    with spans("cli.parse_s"):
        args = cli.build_parser().parse_args(argv)
    files = sorted(p for p in Path(args.dir).iterdir()
                   if p.is_file() and not p.name.startswith("."))
    with spans("designs.validate_s"):
        validated = []
        for path in files:
            D = designs.parse_design(path)
            validated.append(designs.validated_design(D, D.declared[0]))
    results = []
    for D in validated:
        with spans("designs.build_s"):
            M = designs.build_design_incidence(D, args.s)
        with spans("linalg.dense_s"):
            A = M.to_rat_matrix()
        with spans("linalg.oracle_s"):
            X = linalg.pseudoinverse_oracle(A)
        with spans("linalg.dense_s"):
            A = M.to_rat_matrix()
        with spans("linalg.penrose_s"):
            report = linalg.penrose_check(A, X)
        with spans("designs.classes_s"):
            classes, exceptions = designs.entry_classes(D.name, D.blocks, M.row_labels, X)
        results.append((classes, report, exceptions))
    with spans("designs.classes_s"):
        per_design = tuple(res[0] for res in results)
        cross = {
            i: "agree" if len({cls.get(i) for cls in per_design}) == 1 else "disagree"
            for i in sorted({i for cls in per_design for i in cls})
        }
        D = validated[0]
        report = designs.SurveyReport(
            s=args.s, parameters=(D.t, D.v, D.k, D.lam),
            design_names=tuple(D.name for D in validated), classes=per_design,
            penrose=tuple(res[1] for res in results), cross_design=cross,
            exceptions=tuple(e for res in results for e in res[2]),
        )
    with spans("cli.report_s"):
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    return 0, text


def replay_emit(argv, spans):
    """cli._cmd_mpinv --expand / cli._cmd_build for sets and subspaces."""
    with spans("cli.import_s"):
        from mpinc import cli, subsets, subspaces
    with spans("cli.parse_s"):
        args = cli.build_parser().parse_args(argv)
    n, r, c = args.n, args.r, args.c
    if args.kind == "subspace":
        q = args.q
        with spans("subspaces.enumerate_s"):
            subspaces.enumerate_subspaces(n, q, r)
            subspaces.enumerate_subspaces(n, q, c)
        if args.command == "mpinv":
            with spans("subspaces.expand_s"):
                X = subspaces.expand_qclass_matrix(subspaces.subspace_class_matrix(n, q, r, c))
            spans.counts["subspaces.pairs_expand"] += X.rows * X.cols
        with spans("subspaces.build_s"):
            M = subspaces.build_subspace_incidence(n, q, r, c)
        spans.counts["subspaces.pairs_build"] += M.rows * M.cols
    else:
        if args.command == "mpinv":
            with spans("subsets.expand_s"):
                X = subsets.expand_class_matrix(subsets.set_class_matrix(n, r, c))
        with spans("subsets.build_s"):
            M = subsets.build_set_incidence(n, r, c)
    with spans("formats.write_s"):
        if args.command == "mpinv":
            cli._emit_matrix(X, args, row_labels=M.col_labels, col_labels=M.row_labels)
        else:
            cli._emit_matrix(M, args, row_labels=M.row_labels, col_labels=M.col_labels)
    spans.counts["formats.bytes"] += os.path.getsize(args.out)


def spawn_replay(argv):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--replay", json.dumps(argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=COMMAND_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode, None
    return 0, json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# checks, outside the timed region

def check_output(op, output, workdir, index):
    if op.verb == "refuse":
        return
    if op.verb == "survey":
        (t, v, k, lam), _ = SURVEY_DESIGNS[op.design]
        expect.check_survey(json.loads(output), op.s, v, k, lam, SURVEY_COPIES)
        return
    if op.verb == "verify":
        expect.check_verify(json.loads(output), op.family, op.n, op.q, op.r, op.c)
        return
    if op.verb == "classes":
        expect.check_class_values(json.loads(output), op.n, op.q, op.r, op.c)
        return
    text = (Path(workdir) / f"out{index}.{op.fmt}").read_text(encoding="ascii")
    if op.verb == "build":
        expect.check_incidence_mtx(text, op.n, op.q, op.r, op.c)
    elif op.fmt == "csv":
        rows, cols, values = expect.read_csv(text)
        expect.check_expanded((rows, cols), values, op.n, op.q, op.r, op.c)
    else:
        doc, values = expect.read_json_matrix(text)
        expect.check_expanded((doc["rows"], doc["cols"]), values, op.n, op.q, op.r, op.c)
        if "--with-labels" in op.argv:
            expect.require(
                len(doc["row_labels"]) == doc["rows"] and len(doc["col_labels"]) == doc["cols"],
                f"{' '.join(op.argv)}: label counts do not match the shape",
            )


# ---------------------------------------------------------------------------

def run_round(args, cli):
    ops = OPS[args.workload]
    in_process = IN_PROCESS[args.workload]
    spans = Spans()
    times, outputs, failed = [], [], []
    for index, op in enumerate(ops):
        argv = argv_for(op, args.workdir, index)
        start = time.perf_counter()
        if not in_process:
            code, output = (spawn_replay if args.trace else spawn_cli)(argv)
            if output is not None:
                for name, value in output["seconds"].items():
                    spans.seconds[name] += value
                for name, value in output["counts"].items():
                    spans.counts[name] += value
        elif args.trace and op.verb == "verify":
            code, output = replay_verify(argv, spans)
        elif args.trace and op.verb == "survey":
            code, output = replay_survey(argv, spans)
        else:
            code, output = call_cli(cli, argv)
        times.append(time.perf_counter() - start)
        outputs.append(output)
        failed.append(code != op.expected_exit)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    errors = []
    for index, (op, output, bad) in enumerate(zip(ops, outputs, failed)):
        if bad:
            continue
        try:
            check_output(op, output, args.workdir, index)
        except (expect.CheckError, KeyError, ValueError) as exc:
            errors.append(f"{' '.join(op.argv)}: {exc!r}")
    return {
        "op_seconds": times,
        "attempted": len(ops),
        "failed": sum(failed),
        "failed_ops": [" ".join(op.argv) for op, bad in zip(ops, failed) if bad],
        "errors": errors,
        "peak_rss_kb": peak_kb,
        "spans": dict(spans.seconds),
        "counts": dict(spans.counts),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(OPS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--t0", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--replay", help="JSON list: one emit command to replay traced")
    args = parser.parse_args()

    if args.replay:
        spans = Spans()
        replay_emit(json.loads(args.replay), spans)
        print(json.dumps({"seconds": spans.seconds, "counts": spans.counts}))
        return 0

    cli, import_s = import_mpinc()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    if args.workload == "sweep":
        write_designs(args.workdir, args.seed)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if not args.setup_only:
        result.update(run_round(args, cli))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
