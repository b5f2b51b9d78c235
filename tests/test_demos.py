"""The demos run clean and print exactly their pinned output under
tests/golden/demos/.

Regenerate (only when an output change is intended) from the repository root:

    PYTHONPATH=src python tests/test_demos.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
SAMPLES = ("fano/fano.blk", "pairs/pairs42.blk", "fano_complement/fano_complement.blk")


def run_demo(script):
    """The finished process of one demo, run from the repository root."""
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=ROOT
    )


def golden_path(script):
    return GOLDEN / f"{script.stem}.txt"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_output_matches_golden(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_path(script).read_text(encoding="utf-8")


def test_every_demo_has_a_golden():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        golden_path(s).name for s in SCRIPTS
    )


def test_sample_generator_is_reproducible():
    # make_samples rewrites the tracked samples/; its bytes must not change
    paths = [ROOT / "samples" / rel for rel in SAMPLES]
    before = {path: path.read_bytes() for path in paths}
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / "make_samples.py")],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        for path in paths:
            assert path.read_bytes() == before[path], path
    finally:
        for path, data in before.items():
            path.write_bytes(data)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for script in SCRIPTS:
        proc = run_demo(script)
        if proc.returncode != 0:
            sys.exit(f"{script.name} failed:\n{proc.stderr}")
        golden_path(script).write_text(proc.stdout, encoding="utf-8")
