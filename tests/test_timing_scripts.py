"""scripts/bp_timing.py and scripts/export_timing.py run end to end on one
repetition, which stands as its own quartiles, and reject fewer."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, SCRIPTS / name, *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args, header, rows", [
    ("bp_timing.py", ["--reps", "1", "--sizes", "9"],
     "grid 1 worker p25/p50/p75 ms 2 workers p25/p50/p75 ms 1w/2w"
     " envelope 1 worker p25/p50/p75 ms envelope 2 workers p25/p50/p75 ms env 1w/2w"
     " 1w/env bands coarse elements peak RSS MB bands MB", 1),
    ("export_timing.py", ["--reps", "1"], "writer p25/p50/p75 ms bytes MB/s", 5),
], ids=["bp_timing", "export_timing"])
def test_one_repetition_runs(name, args, header, rows):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert " ".join(lines[0].split()) == header
    assert len(lines) == 1 + rows


@pytest.mark.parametrize("reps", ["0", "-1"])
@pytest.mark.parametrize("name", ["bp_timing.py", "export_timing.py"])
def test_fewer_than_one_repetition_exits_2(name, reps):
    # 0 used to crash both scripts with a traceback
    result = run_script(name, "--reps", reps)
    assert result.returncode == 2
    assert f"argument --reps: must be at least 1, got {reps}" in result.stderr
