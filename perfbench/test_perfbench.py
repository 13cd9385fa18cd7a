"""Smoke test of the benchmark itself: every workload briefly, in both
modes, plus the failure accounting. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = run.WORK / "smoke"


def bench_modules():
    """The benchmark's own modules, imported the way run.py imports them."""
    run.load_program()
    sys.path.insert(0, str(run.BENCH))
    import ops
    import spans

    return ops, spans


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["imaging.oracle_rel_err"] <= 1e-9
        _, spans = bench_modules()
        layer_sum = sum(values[spans.self_time_metric(layer)] for layer in spans.LAYERS)
        assert layer_sum == pytest.approx(values["trace.op_s"], rel=1e-9)
    else:
        assert values["ok_ratio"] == 1.0


@pytest.mark.parametrize("workload, artifact", [
    ("lane_fuse", "metrics.json"),
    ("plan_coverage", "coverage.csv"),
])
def test_corrupted_output_counts_as_failed(workload, artifact):
    ops, _ = bench_modules()

    def corrupt(op):
        path = op.out / artifact
        if artifact == "metrics.json":
            path.write_text(json.dumps({**json.loads(path.read_text()), "error": "corrupted"}))
        else:
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    result = run.measure(ops.WORKLOADS[workload], 0, 0.0, False, SCRATCH / workload, after_op=corrupt)
    values, _ = run.end_to_end(result, [1.0])
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert values["ok_ratio"] == 0.0
    assert not result["correct"]


def test_tail_is_never_below_the_median():
    assert run.tail(list(range(1, 26))) == (15, 60.0)  # ten samples beyond the 15th of 25
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3)


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
