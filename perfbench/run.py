"""mpinc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; mpinc is imported from its src/. One caller,
one operation at a time: a closed loop. Every round of a workload runs in a
fresh worker process (perfbench/worker.py), so mpinc's enumeration cache
starts cold each round, as it does for each CLI invocation. Rounds repeat
until the next one would end after --seconds. With --trace 0 the last line
of stdout carries the end-to-end metrics of untraced rounds; with --trace 1
it carries the per-layer spans of traced rounds, which alternate with
untraced ones so that trace.overhead_s compares rounds of the same run.
The line before it describes the run (seed, Python, nproc, commit, gmpy2).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import IN_PROCESS, OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # extra start-ups per run, so setup_s is a median of several
RUN_LIMIT_S = 170  # a run must end well within 180 s, whatever --seconds says

PER_LAYER_SPANS = (
    "linalg.oracle_s", "linalg.penrose_s", "linalg.identity_s", "linalg.compare_s",
    "linalg.dense_s", "subspaces.enumerate_s", "subspaces.build_s", "subspaces.expand_s",
    "subsets.build_s", "subsets.expand_s", "designs.validate_s", "designs.build_s",
    "designs.classes_s", "formats.write_s", "cli.parse_s", "cli.report_s",
)


def worker_env():
    env = dict(os.environ)
    env.pop("MPINC_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_worker(args, workdir, traced=False, setup_only=False, timeout=RUN_LIMIT_S):
    """Run one worker to its end and return the JSON object it printed last.

    The worker gets a session of its own, so a timeout kills it together
    with any mpinc process it started.
    """
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(workdir)]
    command += ["--trace"] if traced else []
    command += ["--setup-only"] if setup_only else []
    t0 = time.monotonic()
    with subprocess.Popen(command + ["--t0", repr(t0)], env=worker_env(),
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def case_quantiles(rounds):
    """Median over rounds of each round's (p50, p95) operation time.

    Every round runs the same operations, so a quantile taken per round sits
    at the same rank in every run, however many rounds the run fits in.
    """
    per_round = [statistics.quantiles(r["op_seconds"], n=20, method="inclusive")
                 for r in rounds]
    return (statistics.median(q[9] for q in per_round),
            statistics.median(q[18] for q in per_round))


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def gmpy2_imports():
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return False
    return True


def end_to_end(setups, rounds):
    p50, p95 = case_quantiles(rounds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(r["op_seconds"]) for r in rounds), "s"),
        "case_p50_s": (p50, "s"),
        "case_p95_s": (p95, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
    }


def per_layer(workload, plain, traced):
    def median_of(key, field="spans"):
        return statistics.median(r[field].get(key, 0) for r in traced)

    def per_pair_us(span, count):
        pairs = median_of(count, "counts")
        return median_of(span) / pairs * 1e6 if pairs else 0.0

    traced_wall = statistics.median(sum(r["op_seconds"]) for r in traced)
    plain_wall = statistics.median(sum(r["op_seconds"]) for r in plain)
    metrics = {name: (median_of(name), "s") for name in PER_LAYER_SPANS}
    # An in-process round imports mpinc once, before its first operation;
    # emit imports it in every command, inside the replayed spans.
    if IN_PROCESS[workload]:
        import_s = statistics.median(r["import_s"] for r in traced)
    else:
        import_s = median_of("cli.import_s")
    covered = statistics.median(sum(r["spans"].values()) for r in traced)
    metrics.update({
        "subspaces.build_us_per_pair": (per_pair_us("subspaces.build_s", "subspaces.pairs_build"), "us"),
        "subspaces.expand_us_per_pair": (per_pair_us("subspaces.expand_s", "subspaces.pairs_expand"), "us"),
        "formats.bytes": (median_of("formats.bytes", "counts"), "bytes"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.coverage_pct": (100 * covered / traced_wall, "%"),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mpinc" / "__init__.py").is_file():
        print(f"no mpinc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    workroot = HERE / ".work" / str(os.getpid())
    try:
        setups = [spawn_worker(args, workroot / f"setup{k}", setup_only=True)["setup_s"]
                  for k in range(SETUP_PROBES)]
        plain, traced = [], []
        measuring = time.monotonic()
        while True:
            left = RUN_LIMIT_S - (time.monotonic() - started)
            plain.append(spawn_worker(args, workroot / f"round{len(plain)}", timeout=left))
            if args.trace:
                left = RUN_LIMIT_S - (time.monotonic() - started)
                traced.append(spawn_worker(args, workroot / f"traced{len(traced)}",
                                           traced=True, timeout=left))
            elapsed = time.monotonic() - measuring
            per_step = elapsed / len(plain)
            if (elapsed + per_step > args.seconds
                    or time.monotonic() - started + per_step > RUN_LIMIT_S - 20):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(HERE / ".work", ignore_errors=True)

    rounds = plain + traced
    setups += [r["setup_s"] for r in rounds]
    errors = [e for r in rounds for e in r["errors"]]
    for error in errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    metrics = per_layer(args.workload, plain, traced) if args.trace else end_to_end(setups, plain)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain), "traced_rounds": len(traced),
        "ops_per_round": len(OPS[args.workload]), "setup_samples": len(setups),
        "failed_ops": sorted({op for r in rounds for op in r["failed_ops"]}),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "gmpy2": gmpy2_imports(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
