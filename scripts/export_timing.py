#!/usr/bin/env python3
"""Time the CSV writers on the 25-pair lane fuse.

    python3 scripts/export_timing.py [--reps 15]

Builds the inputs of `scenarios/lane_multistatic.json` once (3350
channels), then times each writer and prints the median and quartiles in
milliseconds, the bytes one repetition writes and the throughput at the
median in MB/s (1 MB = 1e6 bytes):

- `wavenumber.export_coverage_csv` at n_freq 64 (the `coverage` command's
  `coverage.csv`) and `wavenumber.export_hull_csv` of its hull
  (`hull.csv`);
- `imaging.export_image_csv` of the coherent 25-pair fused image on a
  49x49 and a 121x121 grid (the `fuse` command's `fused.csv`);
- `synth.export_record_csv` of all 3350 records (the `simulate` command's
  record files), timed together.

Every repetition writes fresh files into its own temporary directory,
removed after the repetition is timed.
"""

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from netrad.fusion import fuse_coherent  # noqa: E402
from netrad.imaging import default_grid, export_image_csv, pair_images  # noqa: E402
from netrad.scene import ImageGrid, Vec2, load_scenario  # noqa: E402
from netrad.synth import export_record_csv, suggest_window, synthesize  # noqa: E402
from netrad.wavenumber import (  # noqa: E402
    coverage_region, export_coverage_csv, export_hull_csv, predicted_resolution)

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--reps", type=int, default=15)
args = parser.parse_args()
if args.reps < 1:
    parser.error(f"argument --reps: must be at least 1, got {args.reps}")
sc = load_scenario((ROOT / "scenarios" / "lane_multistatic.json").read_text())
step = default_grid(sc).spacing[0]
target = sc.targets[0].position


def grid(n):
    half = step * (n - 1) / 2
    return ImageGrid(Vec2(target.x - half, target.y - half), (step, step), (n, n))


def write_records(records, out):
    for c, channel in enumerate(records.channels.tolist()):
        export_record_csv(records[c], out / ("ch_" + "-".join(map(str, channel)) + ".csv"))


def fused_image(n):
    records = synthesize(sc, suggest_window(sc, grid(n)))
    return fuse_coherent(pair_images(records, sc, grid(n), workers=2))


region = coverage_region(sc, target, n_freq=64)
estimate = predicted_resolution(region)
fused = {n: fused_image(n) for n in (49, 121)}
records = synthesize(sc, suggest_window(sc))  # the window `simulate` writes
writers = {
    "coverage.csv n_freq=64": lambda out: export_coverage_csv(region, out / "coverage.csv"),
    "hull.csv": lambda out: export_hull_csv(estimate, out / "hull.csv"),
    "fused.csv 49x49": lambda out: export_image_csv(fused[49], out / "fused.csv"),
    "fused.csv 121x121": lambda out: export_image_csv(fused[121], out / "fused.csv"),
    f"{len(records)} record files": lambda out: write_records(records, out),
}
print(f"{'writer':<24} {'p25/p50/p75 ms':>22} {'bytes':>10} {'MB/s':>7}")
with tempfile.TemporaryDirectory() as tmp:
    for name, write in writers.items():
        times = []
        for _ in range(args.reps):
            out = Path(tempfile.mkdtemp(dir=tmp))
            start = time.perf_counter()
            write(out)
            times.append(1e3 * (time.perf_counter() - start))
            size = sum(f.stat().st_size for f in out.iterdir())
            shutil.rmtree(out)
        # one rep is its own quartiles
        q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{name:<24} {'/'.join(f'{v:.2f}' for v in q):>22} {size:>10} {size / 1e3 / q[1]:>7.1f}")
