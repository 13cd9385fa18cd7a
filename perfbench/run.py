#!/usr/bin/env python3
"""netrad benchmark: one workload per process, run as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload lane_fuse --seed 1 --seconds 35 --trace 0

One client issues one op at a time; each op starts when the last one has
finished and been checked. Ops are timed end to end, and an op that fails
or fails a check counts against ``ok_ratio`` instead of being timed.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from a run that alternates untraced and
traced ops. The last line of standard output is the result JSON; the line
before it holds the problem sizes, the machine facts and the sample count
behind every figure. See perfbench/README.md for what each metric means.

netrad is imported from ``src/`` of the checkout this file sits in; the
run fails with exit code 2, before printing any result, if it is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
REQUIRED = (
    ROOT / "BENCHMARK.json",
    SRC / "netrad" / "__init__.py",
    ROOT / "scenarios" / "lane_multistatic.json",
    ROOT / "tests" / "helpers.py",
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import netrad from this checkout's ``src/``; exit 2 if it is not there."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        fail(f"missing from the checkout: {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import netrad

    if Path(netrad.__file__).resolve().parent != SRC / "netrad":
        fail(f"imported netrad from {netrad.__file__}, not from {SRC}")


def setup(workload, seed: int, work: Path):
    """Make the run ready: generate the first scenario, have the program
    load and validate it, and run the op once on a cut-down scene."""
    import ops
    from netrad import scene

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    reference = ops.reference_doc()
    first = ops.jittered_doc(reference, rng, seed)
    violations = scene.validate(scene.load_scenario(json.dumps(first)))
    if violations:
        raise ops.CheckFailed(f"generated scenario is invalid: {violations}")
    rc = workload.run(ops.write_op(ops.warmup_doc(first), work))
    if rc != 0:
        raise ops.CheckFailed(f"warm-up op exited with {rc}")
    return rng, reference, first


def probe_setup(name: str, seed: int, work: Path) -> list[float]:
    """Seconds from process start to ready, in fresh processes one at a time."""
    samples = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", "0", "--setup-only", str(work / f"probe{i}")]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe {i} failed with exit code {rc}")
        samples.append(ready - start)
    return samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, but
    never below the median (short runs have no such tail): the k-th
    smallest value with k = max(n - 10, ceil(n / 2)). Returns (value,
    percentile)."""
    n = len(values)
    if not n:
        return math.nan, math.nan
    k = max(n - 10, math.ceil(n / 2))
    return sorted(values)[k - 1], 100.0 * k / n


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, after_op=None) -> dict:
    """Set up, then run ops for ``seconds`` (at least one; in a traced run
    at least one untraced and one traced). ``after_op`` sees each op's
    outputs before they are checked."""
    import ops
    import spans

    rng, reference, doc = setup(workload, seed, work)
    tracer = spans.Tracer()
    times, failed, quality, sizes = [], [], [], {}
    traced_times, untraced_times, speedups = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline or (trace and i < 2):
        if i:
            doc = ops.jittered_doc(reference, rng, seed)
        op = ops.write_op(doc, work)
        traced = trace and i % 2 == 1
        rc = None
        try:
            with tracer.op(i) if traced else nullcontext():
                start = time.perf_counter()
                rc = workload.run(op)
                elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
        if after_op is not None:
            after_op(op)
        problems = workload.check(op, rc) if rc is not None else ["op raised"]
        for problem in problems:
            print(f"perfbench: op {i}: {problem}", file=sys.stderr)
        failed.append(bool(problems))
        if not problems:
            times.append(elapsed)
            (traced_times if traced else untraced_times).append(elapsed)
            quality.append(op.quality)
            sizes.update(op.sizes)
        if traced and tracer.last_bp_call is not None:
            fn, args, kwargs = tracer.last_bp_call
            start = time.perf_counter()
            fn(*args, **{**kwargs, "workers": 1})
            speedups.append((time.perf_counter() - start) / tracer.duration_of(i, "imaging.bp"))
            tracer.last_bp_call = None
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = {}
    correct = not any(failed)
    try:
        if failed[-1]:
            raise ops.CheckFailed("no oracle check: the last op failed")
        doc, fused_csv = workload.imaged(op)
        oracle = ops.oracle_check(doc, fused_csv)
        if oracle["oracle_rel_err"] > ops.ORACLE_BOUND:
            raise ops.CheckFailed(f"oracle deviation {oracle['oracle_rel_err']:g} above {ops.ORACLE_BOUND:g}")
        if not workload.imaging:
            quality = [op.quality]
    except (ops.CheckFailed, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        correct = False
    return {
        "times": times, "attempted": len(failed), "failed": sum(failed), "correct": correct,
        "quality": quality, "sizes": {**sizes, **oracle}, "peak_rss_mb": peak_rss_mb,
        "tracer": tracer, "traced_times": traced_times, "untraced_times": untraced_times,
        "speedups": speedups,
    }


def end_to_end(run: dict, setup_s: list[float]) -> tuple[dict, dict]:
    op_tail, pct = tail(run["times"])
    values = {
        "setup_s": statistics.median(setup_s),
        "op_s_p50": median(run["times"]),
        "op_s_tail": op_tail,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
    }
    for key in ("pslr_db", "islr_db", "rho_mismatch"):
        figures = [q[key] for q in run["quality"] if key in q]
        values[key] = median(figures)
    notes = {"op_s_tail_percentile": pct, "op_samples": len(run["times"]),
             "op_times_s": run["times"], "setup_samples_s": setup_s}
    return values, notes


def per_layer(run: dict) -> tuple[dict, dict]:
    import spans

    per_op = spans.per_op_layers(run["tracer"].spans)

    def mean(key):
        return statistics.fmean(rec.get(key, 0.0) for rec in per_op.values())

    values = {spans.self_time_metric(name): mean(f"{name}_s") for name in spans.LAYERS}
    bp_s, pixch = mean("imaging.bp_s"), mean("imaging.bp.pixch")
    plan_s, candidates = mean("orchestrate.plan_total_s"), mean("orchestrate.candidates")
    values.update({
        "wavenumber.tile_samples": mean("wavenumber.coverage.tile_samples"),
        "wavenumber.export_mb": mean("wavenumber.export.bytes") / 1e6,
        "imaging.bp_pixch": pixch,
        "imaging.bp_mpixch_per_s": pixch / bp_s / 1e6 if bp_s else 0.0,
        "imaging.bp_speedup_workers": median(run["speedups"]) if run["speedups"] else 0.0,
        "imaging.oracle_rel_err": run["sizes"].get("oracle_rel_err", math.nan),
        "synth.channels": mean("synth.synth.channels"),
        "synth.samples_per_record": mean("synth.synth.samples_per_record"),
        "orchestrate.candidates": candidates,
        "orchestrate.plan_s_per_candidate": plan_s / candidates if candidates else 0.0,
        "trace.op_s": mean("op_s"),
        "trace.overhead_ratio": median(run["traced_times"]) / median(run["untraced_times"]),
    })
    notes = {"traced_ops": len(run["traced_times"]), "untraced_ops": len(run["untraced_times"]),
             "speedup_samples": len(run["speedups"])}
    return values, notes


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "cache size"):
                    facts.setdefault(key.strip().replace(" ", "_"), value.strip())
    except OSError:
        pass
    return facts


def result_line(values: dict, units: dict, run: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    correct = run["correct"] and all(math.isfinite(v) for v in values.values())
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="set up in WORKDIR, print 'ready' and exit (the setup_s probe)")
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, str(BENCH))
    import ops

    if args.workload not in ops.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(ops.WORKLOADS)}")
    workload = ops.WORKLOADS[args.workload]
    if args.setup_only:
        setup(workload, args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s = [] if args.trace else probe_setup(args.workload, args.seed, work / "probes")
    run = measure(workload, args.seed, args.seconds, bool(args.trace), work / "loop")
    if args.trace:
        values, notes = per_layer(run)
        run["tracer"].write(work / "spans.jsonl")
    else:
        values, notes = end_to_end(run, setup_s)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **notes, "problem_sizes": run["sizes"], "machine": machine_facts(),
    }
    shutil.rmtree(work / "loop", ignore_errors=True)
    shutil.rmtree(work / "probes", ignore_errors=True)
    (work / "details.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result_line(values, units, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
