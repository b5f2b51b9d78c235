import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("0*.py"))
SAMPLES = ("fano/fano.blk", "pairs/pairs42.blk", "fano_complement/fano_complement.blk")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


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
