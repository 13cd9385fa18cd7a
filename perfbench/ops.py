"""Workloads of the netrad benchmark: the scenario each op reads, the op
itself and the checks its outputs must pass.

Every op reads its own generated scenario: the reference
``lane_multistatic`` scene with the target moved by a few centimetres of
seeded jitter. Consecutive ops therefore never share a scene or a grid,
as for a CLI user whose every run images a new scene, and no result can
be carried from one op to the next.

The checks recompute what they compare against without the library:
coverage extents come from each channel's two band-edge wavenumbers and
the oracle is the brute-force back-projection of ``tests/helpers.py``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from netrad import cli, imaging, scene, orchestrate, synth

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = ROOT / "scenarios" / "lane_multistatic.json"
ORACLE_HELPERS = ROOT / "tests" / "helpers.py"

C = 3.0e8  # m/s, the value the library's docs and scenarios use
JITTER_M = 0.03  # target jitter per axis, below the 0.034 m finest resolution
WORKERS = "2"  # back-projection threads: nproc of the 2-vCPU reference machine, fixed for comparability
COVERAGE_N_FREQ = 64
WIDE_GRID = ("--grid-spacing", "0.008", "--grid-margin-cells", "60")  # 121 x 121 pixels
PLAN_N_ACTIVE = 3
PLAN_OBJECTIVE = "extent-y"
ORACLE_PATCH = 5  # pixels per side of the oracle patch around the peak
ORACLE_BOUND = 1e-9  # the test suite's oracle tolerance


@dataclass
class Op:
    """One op: its scenario document and file, its output directory and
    what the checks collect about it."""

    doc: dict
    scenario_path: Path
    out: Path
    plan: object = None
    quality: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def reference_doc() -> dict:
    return json.loads(REFERENCE_SCENARIO.read_text())


def jittered_doc(reference: dict, rng: random.Random, seed: int) -> dict:
    """The reference scene with its target moved by seeded jitter."""
    target = dict(reference["targets"][0])
    x, y = target["position"]
    target["position"] = [x + rng.uniform(-JITTER_M, JITTER_M), y + rng.uniform(-JITTER_M, JITTER_M)]
    return {**reference, "targets": [target], "seed": seed}


def warmup_doc(doc: dict) -> dict:
    """The same scene with four receive elements per terminal: cheap to
    run, but it takes every code path of the full op."""
    terminals = []
    for term in doc["terminals"]:
        mid = len(term["rx_elements"]) // 2
        terminals.append({**term, "rx_elements": term["rx_elements"][mid - 2 : mid + 2]})
    return {**doc, "terminals": terminals}


def write_op(doc: dict, work: Path) -> Op:
    """Write the op's scenario file and give it an empty output directory."""
    path = work / "scenario.json"
    path.write_text(json.dumps(doc))
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    return Op(doc=doc, scenario_path=path, out=out)


def active_pairs(doc: dict) -> list[tuple[int, int]]:
    n = len(doc["terminals"])
    pairing = doc.get("pairing", np.eye(n, dtype=int).tolist())
    return [(l, k) for l in range(n) for k in range(n) if pairing[l][k]]


def band_edge_extents(doc: dict, pairs) -> tuple[float, float]:
    """k_x and k_y extents (rad/m) of the composite wavenumbers of every
    channel of ``pairs`` at the two band edges, from
    k* = (2 pi f / c) (u_tx + u_rx) with u the unit vector from each
    element toward the target."""
    target = np.asarray(doc["targets"][0]["position"], dtype=float)
    f0, bw = doc["f0_hz"], doc["bandwidth_hz"]
    edges = 2.0 * math.pi / C * np.array([f0 - bw / 2.0, f0 + bw / 2.0])
    points = []
    for l, k in pairs:
        tx = target - np.asarray(doc["terminals"][l]["tx_elements"], dtype=float)
        rx = target - np.asarray(doc["terminals"][k]["rx_elements"], dtype=float)
        u_tx = tx / np.hypot(tx[:, 0], tx[:, 1])[:, None]
        u_rx = rx / np.hypot(rx[:, 0], rx[:, 1])[:, None]
        direction = (u_tx[:, None, :] + u_rx[None, :, :]).reshape(-1, 2)
        points.append((edges[:, None, None] * direction[None, :, :]).reshape(-1, 2))
    pts = np.concatenate(points)
    return float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1]))


def channel_count(doc: dict, pairs) -> int:
    return sum(
        len(doc["terminals"][l]["tx_elements"]) * len(doc["terminals"][k]["rx_elements"])
        for l, k in pairs
    )


def _round9(value: float) -> float:
    # the CLI writes artifact numbers with nine significant digits
    return float(f"{value:.9g}")


def _load_fused(path: Path):
    """Pixel coordinates and magnitudes of a fused.csv artifact."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], np.hypot(data[:, 2], data[:, 3])


def _grid_of(x: np.ndarray, y: np.ndarray) -> scene.ImageGrid:
    xs, ys = np.unique(x), np.unique(y)
    spacing = ((xs[-1] - xs[0]) / (len(xs) - 1), (ys[-1] - ys[0]) / (len(ys) - 1))
    return scene.ImageGrid(scene.Vec2(xs[0], ys[0]), spacing, (len(xs), len(ys)))


def read_grid(path: Path) -> scene.ImageGrid:
    """The pixel grid a fused.csv artifact was written on."""
    x, y, _ = _load_fused(path)
    return _grid_of(x, y)


def check_fused(op: Op, rc: int, pairs) -> list[str]:
    """Exit code 0, metrics without an error, the fused peak within one
    pixel of the seeded target; records the image quality figures."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads((op.out / "metrics.json").read_text())
        x, y, mag = _load_fused(op.out / "fused.csv")
    except (OSError, ValueError) as err:
        return [f"unreadable artifact: {err}"]
    if "error" in doc:
        return [f"metrics.json reports an error: {doc['error']}"]
    problems = []
    grid = _grid_of(x, y)
    target = scene.Vec2(*op.doc["targets"][0]["position"])
    k = int(np.argmax(mag))
    peak = grid.nearest_pixel(scene.Vec2(x[k], y[k]))
    near = grid.nearest_pixel(target)
    if max(abs(peak[0] - near[0]), abs(peak[1] - near[1])) > 1:
        problems.append(f"fused peak at pixel {peak} is over a pixel from the target's pixel {near}")
    rho_x, rho_y = doc.get("rho_x_m"), doc.get("rho_y_m")
    if rho_x is None or rho_y is None:
        return problems + ["measured resolution missing from metrics.json"]
    dk_x, dk_y = band_edge_extents(op.doc, pairs)
    op.quality = {
        # sidelobe levels below the peak (positive dB): metrics.json gives them as negative
        "pslr_db": -doc["pslr_db"],
        "islr_db": -doc["islr_db"],
        "rho_mismatch": max(
            abs(rho_x / (2.0 * math.pi / dk_x) - 1.0), abs(rho_y / (2.0 * math.pi / dk_y) - 1.0)
        ),
    }
    op.sizes = {"pixels": int(mag.size), "fused_csv_bytes": (op.out / "fused.csv").stat().st_size}
    return problems


class FuseWorkload:
    """``netrad fuse --mode coherent --pairs all`` on the 25-pair lane."""

    imaging = True

    def __init__(self, grid_args: tuple[str, ...] = ()):
        self.grid_args = grid_args

    def run(self, op: Op) -> int:
        return cli.main([
            "fuse", "--mode", "coherent", "--pairs", "all", "--workers", WORKERS,
            *self.grid_args, "--scenario", str(op.scenario_path), "--out", str(op.out),
        ])

    def check(self, op: Op, rc: int) -> list[str]:
        return check_fused(op, rc, active_pairs(op.doc))

    def imaged(self, op: Op) -> tuple[dict, Path]:
        """The scenario and fused.csv whose image the run's quality and
        oracle figures come from: the op's own."""
        return op.doc, op.out / "fused.csv"


class PlanCoverageWorkload:
    """``netrad coverage`` at n_freq=64, then greedy ``orchestrate.plan``
    of 3 of the 5 terminals for the widest k_y extent."""

    imaging = False

    def run(self, op: Op) -> int:
        rc = cli.main([
            "coverage", "--n-freq", str(COVERAGE_N_FREQ),
            "--scenario", str(op.scenario_path), "--out", str(op.out),
        ])
        if rc != 0:
            return rc
        scenario = scene.load_scenario(op.scenario_path.read_text())
        op.plan = orchestrate.plan(
            scenario, scenario.targets[0].position, PLAN_N_ACTIVE, objective=PLAN_OBJECTIVE
        )
        return 0

    def check(self, op: Op, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        pairs = active_pairs(op.doc)
        try:
            res = json.loads((op.out / "resolution.json").read_text())
            with open(op.out / "coverage.csv", "rb") as fh:
                # in chunks, so the check adds nothing to the peak memory of the op
                rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b"")) - 1
        except (OSError, ValueError) as err:
            return [f"unreadable artifact: {err}"]
        for axis, ref in zip("xy", band_edge_extents(op.doc, pairs)):
            got = res.get(f"dk_{axis}_rad_per_m")
            if got is None or abs(got - _round9(ref)) > 1e-9 * ref:
                problems.append(f"dk_{axis} {got} differs from band-edge value {ref!r}")
        channels = channel_count(op.doc, pairs)
        if rows != channels * COVERAGE_N_FREQ:
            problems.append(f"coverage.csv has {rows} rows, expected {channels * COVERAGE_N_FREQ}")
        selected = np.flatnonzero(op.plan.pairing.entries.any(axis=1) | op.plan.pairing.entries.any(axis=0))
        if len(selected) != PLAN_N_ACTIVE:
            problems.append(f"plan selects terminals {selected.tolist()}, expected {PLAN_N_ACTIVE}")
        best_single = max(
            band_edge_extents(op.doc, [(i, i)])[1] for i in range(len(op.doc["terminals"])) if (i, i) in pairs
        )
        if op.plan.predicted.dk_y < best_single * (1 - 1e-9):
            problems.append(f"plan dk_y {op.plan.predicted.dk_y} below best single terminal {best_single}")
        op.sizes = {
            "channels": channels,
            "tile_samples_computed": channels * COVERAGE_N_FREQ,
            "coverage_csv_bytes": (op.out / "coverage.csv").stat().st_size,
        }
        return problems

    def imaged(self, op: Op) -> tuple[dict, Path]:
        """Check the op's coverage prediction by imaging the acquisition it
        describes (all 25 pairs) once per run, outside the timed ops.

        The planned acquisition is not imaged: which of two plans with
        near-equal k_y extent the greedy search picks, terminals (0, 1, 2)
        or (0, 2, 4), follows the sign of the target's x jitter, and their
        images differ by over 14 dB in PSLR, so its figures would swing
        with the seed rather than with the code."""
        work = op.scenario_path.parent / "coverage_check"
        work.mkdir(exist_ok=True)
        check_op = write_op(op.doc, work)
        rc = FuseWorkload().run(check_op)
        problems = check_fused(check_op, rc, active_pairs(op.doc))
        if problems:
            raise CheckFailed(f"imaged coverage check: {'; '.join(problems)}")
        op.quality = check_op.quality
        return op.doc, check_op.out / "fused.csv"


class CheckFailed(Exception):
    """A once-per-run check of the program's output failed."""


WORKLOADS = {
    "lane_fuse": FuseWorkload(),
    "wide_fuse": FuseWorkload(WIDE_GRID),
    "plan_coverage": PlanCoverageWorkload(),
}


def _oracle():
    spec = importlib.util.spec_from_file_location("netrad_test_helpers", ORACLE_HELPERS)
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return helpers.brute_force_backprojection


def oracle_check(doc: dict, fused_csv: Path) -> dict:
    """Synthesize the records of an imaged op and compare the library's
    back-projection with the brute-force oracle on a small patch around
    the target; also returns the op's problem sizes."""
    scenario = scene.load_scenario(json.dumps(doc))
    grid = read_grid(fused_csv)
    records = synth.synthesize(scenario, synth.suggest_window(scenario, grid))
    center = grid.nearest_pixel(scenario.targets[0].position)
    half = ORACLE_PATCH // 2
    patch = scene.ImageGrid(
        scene.Vec2(
            grid.origin.x + (center[0] - half) * grid.spacing[0],
            grid.origin.y + (center[1] - half) * grid.spacing[1],
        ),
        grid.spacing,
        (ORACLE_PATCH, ORACLE_PATCH),
    )
    library = sum(im.pixels for im in imaging.pair_images(records, scenario, patch))
    reference = _oracle()(records, scenario, patch)
    pixels = grid.size[0] * grid.size[1]
    return {
        "oracle_rel_err": float(np.abs(library - reference).max() / np.abs(reference).max()),
        "channels": len(records),
        "pixels": pixels,
        "samples_per_record": len(records[0].samples),
        "bp_pixch_computed": pixels * len(records),
    }
