#!/usr/bin/env python3
"""Time back-projection of the 25-pair lane fuse, and the CLI pipeline's
envelope imaging, at one and two workers.

    python3 scripts/bp_timing.py [--reps 15] [--sizes 25,49,65,81,101,121]

Synthesizes `scenarios/lane_multistatic.json` once (3350 channels), then
for each square grid, centred on the target at the default pixel pitch,
times `imaging.pair_images` and the pipeline's imaging (`pair_images` on
`imaging.envelope_grid`, then `imaging.upsample_envelopes`, which passes
through images already on the grid), each with workers 1 and 2,
alternating, and prints the median and quartiles of each in milliseconds,
the ratios of the medians, the row bands `pair_images` images each of the
four calls in (at most one per CPU of this host), the coarse grid's size
("direct" where `envelope_grid` returns the grid itself), the Rx elements
each numpy call covers in one band, and the peak RSS so far of this
process and of its largest forked band (``RUSAGE_CHILDREN``, which counts
the pages a child shares with this process).
"""

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from netrad import imaging  # noqa: E402
from netrad.imaging import default_grid, envelope_grid, pair_images, upsample_envelopes  # noqa: E402
from netrad.scene import ImageGrid, Vec2, load_scenario  # noqa: E402
from netrad.synth import suggest_window, synthesize  # noqa: E402
from netrad.wavenumber import coverage_region  # noqa: E402

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--reps", type=int, default=15)
parser.add_argument("--sizes", default="25,49,65,81,101,121")
args = parser.parse_args()
if args.reps < 1:
    parser.error(f"argument --reps: must be at least 1, got {args.reps}")
sc = load_scenario((ROOT / "scenarios" / "lane_multistatic.json").read_text())
step = default_grid(sc).spacing[0]
target = sc.targets[0].position
region = coverage_region(sc, target)  # the CLI's coverage: one target is its own box centre


def grid(n):
    half = step * (n - 1) / 2
    return ImageGrid(Vec2(target.x - half, target.y - half), (step, step), (n, n))


sizes = [int(s) for s in args.sizes.split(",")]
# the largest grid's back-projection grid spans every smaller one's
records = synthesize(sc, suggest_window(sc, envelope_grid(region, grid(max(sizes)))))
print(f"{'grid':>5} {'1 worker p25/p50/p75 ms':>25} {'2 workers p25/p50/p75 ms':>26} {'1w/2w':>6}"
      f" {'envelope 1 worker p25/p50/p75 ms':>34} {'envelope 2 workers p25/p50/p75 ms':>35}"
      f" {'env 1w/2w':>9} {'1w/env':>6} {'bands':>7} {'coarse':>7}"
      f" {'elements':>8} {'peak RSS MB':>11} {'bands MB':>8}")
for n in sizes:
    g = grid(n)
    coarse = envelope_grid(region, g)
    calls = [(g, 1), (g, 2), (coarse, 1), (coarse, 2)]
    times = [[] for _ in calls]
    for _ in range(args.reps):
        for (on, workers), spent in zip(calls, times):
            start = time.perf_counter()
            upsample_envelopes(pair_images(records, sc, on, workers=workers), sc, g)
            spent.append(1e3 * (time.perf_counter() - start))
    # one rep is its own quartiles
    q = [statistics.quantiles(t, n=4) if len(t) > 1 else t * 3 for t in times]
    cells = ["/".join(f"{v:.1f}" for v in quartiles) for quartiles in q]
    bands = "/".join(str(imaging._band_count(on.size[0] * on.size[1] * len(records), on.size[0], workers))
                     for on, workers in calls)
    size = "direct" if coarse == g else f"{coarse.size[0]}x{coarse.size[1]}"
    per_block = imaging._block_elements(n * n)
    rss_mb = [resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print(f"{n:>4}² {cells[0]:>25} {cells[1]:>26} {q[0][1] / q[1][1]:>6.2f}"
          f" {cells[2]:>34} {cells[3]:>35} {q[2][1] / q[3][1]:>9.2f} {q[0][1] / q[2][1]:>6.2f}"
          f" {bands:>7} {size:>7} {per_block:>8} {rss_mb[0]:>11.1f} {rss_mb[1]:>8.1f}")
