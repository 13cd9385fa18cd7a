"""Batch command-line front-end.

Subcommands compose the library stages over a scenario file:

    coverage     tile/hull CSV + predicted-resolution JSON
    simulate     per-channel raw record CSV dumps
    image        per-pair back-projected images (CSV + PGM)
    fuse         fused image (CSV + PGM) + metrics JSON
    orchestrate  tessellated plan JSON + end-to-end fused image + metrics
    report       one summary JSON + CSV table across a directory of runs

Every stage recomputes from the scenario (noise is seeded per channel),
so re-running a subcommand with the same inputs produces byte-identical
artifacts. Exit codes: 0 ok, 2 validation failure, 3 runtime failure;
failures also emit a one-line error JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import fusion, imaging, metrics, orchestrate, scene, synth, wavenumber

OUT_DIR_ENV = "NETRAD_OUT"

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_RUNTIME = 3

# --set keys: the scenario file's JSON key -> the Scenario field it sets
_OVERRIDABLE_FIELDS = {"f0_hz": "f0", "bandwidth_hz": "bandwidth", "noise_power": "noise_power",
                       "seed": "rng_seed"}


class _ValidationFailure(Exception):
    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


# numeric options: dest, flag, least valid value and whether that value
# itself is valid; every value must also be finite
_OPTION_BOUNDS = (
    ("dynamic_range_db", "--dyn-range", 0, False), ("grid_spacing", "--grid-spacing", 0, False),
    ("fs", "--fs", 0, False), ("psi0_deg", "--psi0-deg", -math.inf, False),
    ("workers", "--workers", 1, True), ("plan_count", "--L", 1, True),
    ("grid_margin_cells", "--grid-margin-cells", 0, True), ("n_freq", "--n-freq", 2, True),
)


def _check_options(config: argparse.Namespace) -> None:
    if config.out_dir is None:
        raise _ValidationFailure(f"--out is required (or set ${OUT_DIR_ENV})")
    for name, option, low, inclusive in _OPTION_BOUNDS:
        value = getattr(config, name, None)  # an option the subcommand lacks is unset
        if value is None or math.isfinite(value) and (value >= low if inclusive else value > low):
            continue
        bound = f" {'>=' if inclusive else '>'} {low}" if math.isfinite(low) else ""
        raise _ValidationFailure(f"{option} must be a finite number{bound}, got {value:g}")


def _round9(value):
    """Clamp numeric artifact output to 9 significant digits."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(v) for v in value]
    return value


def _write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(_round9(doc), indent=2, sort_keys=True) + "\n")


def _load_scenario(config: argparse.Namespace) -> scene.Scenario:
    if config.scenario_path is None:
        raise _ValidationFailure("this subcommand requires --scenario")
    path = Path(config.scenario_path)
    if not path.exists():
        raise _ValidationFailure(f"scenario file not found: {path}")
    try:
        scenario = scene.load_scenario(path.read_text())
    except scene.SchemaError as err:
        raise _ValidationFailure(f"{path}: {err}") from err
    for key, value in config.overrides:
        if key not in _OVERRIDABLE_FIELDS:
            raise _ValidationFailure(
                f"--set key {key!r} not overridable (choose from {', '.join(_OVERRIDABLE_FIELDS)})"
            )
        if key == "seed":
            if not value.is_integer():
                raise _ValidationFailure(f"--set seed must be an integer, got {value:g}")
            value = int(value)
        scenario = replace(scenario, **{_OVERRIDABLE_FIELDS[key]: value})
    violations = scene.validate(scenario)
    if violations:
        raise _ValidationFailure(f"{path}: scenario is invalid", violations)
    if getattr(config, "fs", None) is not None and config.fs < scenario.bandwidth:
        raise _ValidationFailure(f"--fs must be at least the bandwidth {scenario.bandwidth:g} Hz "
                                 f"(complex Nyquist rate), got {config.fs:g}")
    return scenario


def _reference_target(scenario: scene.Scenario) -> scene.Vec2:
    if not scenario.targets:
        raise _ValidationFailure("scenario has no targets to analyze")
    return scenario.targets[0].position


def _select_pairs(config: argparse.Namespace, scenario: scene.Scenario) -> scene.Scenario:
    """``scenario`` with only the pairs that ``image`` and ``fuse`` image."""
    _reference_target(scenario)  # no targets is a validation failure here
    pairs = scenario.pairing.active_pairs()
    if config.mode == "incoherent" or config.pair_scope == "mono":
        pairs = [(l, k) for l, k in pairs if l == k]
    if not pairs:
        raise _ValidationFailure("no active pairs left after pair selection")
    # every later stage sees only the selected pairs
    pairing = scene.AssociationMatrix.from_pairs(scenario.n_terminals, pairs)
    return replace(scenario, pairing=pairing)


def _imaging_grids(config: argparse.Namespace,
                   scenario: scene.Scenario) -> tuple[scene.ImageGrid, scene.ImageGrid]:
    """The grid to image ``scenario`` on and the grid to back-project on
    (``imaging.envelope_grid``), from one coverage region freed on return."""
    region = wavenumber.coverage_region(scenario, imaging.target_box(scenario)[2])
    spacing = config.grid_spacing
    # the default pitch resolves the selected pairs; incoherent fusion adds
    # no coverage, so it resolves the finest single pair
    if spacing is None and config.mode == "incoherent":
        spacing = imaging.default_spacing(*imaging.finest_pair_resolution(region))
    elif spacing is None:
        est = wavenumber.predicted_resolution(region)
        spacing = imaging.default_spacing(est.rho_x, est.rho_y)
    grid = imaging.default_grid(scenario, config.grid_margin_cells, spacing)
    return grid, imaging.envelope_grid(region, grid)


def _imaging_pipeline(config: argparse.Namespace,
                      scenario: scene.Scenario) -> list[imaging.ComplexImage]:
    """The pair images of ``scenario``, whose pairs the caller selected."""
    grid, bp_grid = _imaging_grids(config, scenario)
    window = synth.suggest_window(scenario, bp_grid)
    records = synth.synthesize(scenario, window, fs=config.fs)
    images = imaging.pair_images(records, scenario, bp_grid, workers=config.workers)
    del records  # freed before the upsampled images are allocated: it bounds the peak memory
    return imaging.upsample_envelopes(images, scenario, grid)


def _cmd_coverage(config: argparse.Namespace, out: Path) -> None:
    scenario = _load_scenario(config)
    target = _reference_target(scenario)
    out.mkdir(parents=True, exist_ok=True)
    region = wavenumber.coverage_region(
        scenario, target, n_freq=config.n_freq, baseband=config.baseband
    )
    est = wavenumber.predicted_resolution(region)
    wavenumber.export_coverage_csv(region, out / "coverage.csv")
    wavenumber.export_hull_csv(est, out / "hull.csv")
    doc = est.to_dict()
    doc["label"] = region.label
    doc["n_tiles"] = len(region.channels)
    _write_json(doc, out / "resolution.json")


def _cmd_simulate(config: argparse.Namespace, out: Path) -> None:
    scenario = _load_scenario(config)
    _reference_target(scenario)  # no targets is a validation failure here
    out.mkdir(parents=True, exist_ok=True)
    window = synth.suggest_window(scenario)
    records = synth.synthesize(scenario, window, fs=config.fs)
    rec_dir = out / "records"
    rec_dir.mkdir(exist_ok=True)
    channels = records.channels.tolist()
    for rec, channel in zip(records, channels):
        synth.export_record_csv(rec, rec_dir / ("ch_" + "-".join(map(str, channel)) + ".csv"))
    meta = {
        "n_records": len(records),
        "window_s": [records.t0, records.t_end] if records else None,
        "fs_hz": records.fs if records else None,
        "channels": channels,
    }
    _write_json(meta, out / "records_meta.json")


def _cmd_image(config: argparse.Namespace, out: Path) -> None:
    scenario = _select_pairs(config, _load_scenario(config))
    out.mkdir(parents=True, exist_ok=True)
    images = _imaging_pipeline(config, scenario)
    for im in images:
        stem = "image_{}-{}".format(*im.provenance)
        imaging.export_image_csv(im, out / f"{stem}.csv")
        imaging.export_image_pgm(im, out / f"{stem}.pgm", config.dynamic_range_db)


def _fuse_and_report(config: argparse.Namespace, scenario: scene.Scenario,
                     images: list[imaging.ComplexImage], out: Path) -> None:
    if config.mode == "incoherent":
        fused = fusion.fuse_incoherent(images)
    else:
        fused = fusion.fuse_coherent(images)
    imaging.export_image_csv(fused, out / "fused.csv")
    imaging.export_image_pgm(fused, out / "fused.pgm", config.dynamic_range_db)
    targets = [t.position for t in scenario.targets]
    truth = targets[0] if scenario.noise_power > 0 else None
    try:
        doc = metrics.compute_metrics(fused, truth_pos=truth, targets=targets).to_dict()
    except ValueError as err:
        # a peak on the grid boundary or an all-zero image measures nothing
        doc = {"error": str(err)}
    doc["provenance"] = fused.provenance
    doc["n_images_fused"] = len(images)
    _write_json(doc, out / "metrics.json")


def _cmd_fuse(config: argparse.Namespace, out: Path) -> None:
    scenario = _select_pairs(config, _load_scenario(config))
    out.mkdir(parents=True, exist_ok=True)
    images = _imaging_pipeline(config, scenario)
    _fuse_and_report(config, scenario, images, out)


def _cmd_orchestrate(config: argparse.Namespace, out: Path) -> None:
    scenario = _load_scenario(config)
    target = _reference_target(scenario)
    out.mkdir(parents=True, exist_ok=True)
    # --L is checked >= 1, so unset (None) is the only falsy value
    count = config.plan_count or scenario.n_terminals
    plan = orchestrate.tessellated_plan(
        scenario.f0, scenario.bandwidth, count, target,
        orchestrate.default_stand_off(scenario, target), psi_0=math.radians(config.psi0_deg),
    )
    _write_json(plan.to_dict(), out / "plan.json")
    # the plan's pairing is the selection: every pair, imaged coherently
    planned = orchestrate.scenario_from_plan(scenario, plan)
    images = _imaging_pipeline(config, planned)
    _fuse_and_report(config, planned, images, out)


def _cmd_report(config: argparse.Namespace, out: Path) -> None:
    rows = []
    for path in sorted(out.rglob("metrics.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict):  # valid JSON that is no object is skipped too
            rows.append((str(path.relative_to(out)), doc))
    if not rows:
        raise _ValidationFailure(f"no metrics.json found under {out}")
    fields = ["rho_x_m", "rho_y_m", "pslr_db", "islr_db", "peak_snr_db"]
    lines = ["run," + ",".join(fields)]
    for name, doc in rows:  # null, text, bools and containers give empty cells
        cells = [f"{doc[f]:.9g}" if type(doc.get(f)) in (int, float) else "" for f in fields]
        lines.append(f"{name}," + ",".join(cells))
    (out / "metrics_table.csv").write_text("\n".join(lines) + "\n")
    _write_json(
        {"n_runs": len(rows), "runs": [{"run": n, "metrics": d} for n, d in rows]},
        out / "summary.json",
    )


_COMMANDS = {
    "coverage": _cmd_coverage,
    "simulate": _cmd_simulate,
    "image": _cmd_image,
    "fuse": _cmd_fuse,
    "orchestrate": _cmd_orchestrate,
    "report": _cmd_report,
}


def run(config: argparse.Namespace) -> int:
    """Execute one subcommand, configured by its parsed command line, and
    return the process exit code. A subcommand makes the output directory,
    parents included, only once its inputs pass validation."""
    try:
        _check_options(config)
        _COMMANDS[config.subcommand](config, Path(config.out_dir))
        return _EXIT_OK
    except _ValidationFailure as err:
        payload = {"error": {"kind": "validation", "message": str(err)}}
        if err.violations:
            payload["error"]["violations"] = err.violations
        print(json.dumps(payload), file=sys.stderr)
        return _EXIT_VALIDATION
    except Exception as err:  # pipeline failure: report, do not traceback
        print(
            json.dumps({"error": {"kind": "runtime", "message": str(err)}}),
            file=sys.stderr,
        )
        return _EXIT_RUNTIME


def _parse_set(value: str) -> tuple[str, float]:
    if "=" not in value:
        raise argparse.ArgumentTypeError(f"--set expects key=value, got {value!r}")
    key, _, raw = value.partition("=")
    try:
        return key.strip(), float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--set {key}: {raw!r} is not a number") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netrad",
        description="Networked radio sensing: coverage analysis, simulation, imaging, fusion and orchestration.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--out",
        dest="out_dir",
        metavar="OUT",
        default=os.environ.get(OUT_DIR_ENV),
        help=f"output directory (default from ${OUT_DIR_ENV})",
    )
    scenario = argparse.ArgumentParser(add_help=False, parents=[output])
    scenario.add_argument("--scenario", dest="scenario_path", metavar="SCENARIO",
                          help="scenario JSON file")
    scenario.add_argument("--set", dest="overrides", metavar="KEY=VALUE",
                          type=_parse_set, action="append", default=[],
                          help=f"override a scenario key ({', '.join(_OVERRIDABLE_FIELDS)})")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--fs", type=float, help="complex sampling rate in Hz (default 4B)")
    imaged = argparse.ArgumentParser(add_help=False, parents=[scenario, sampling])
    # image and orchestrate take every active pair, coherently; fuse's --mode
    # and --pairs inherit these as their defaults
    imaged.set_defaults(mode="coherent", pair_scope="all")
    imaged.add_argument("--dyn-range", dest="dynamic_range_db", metavar="DYN_RANGE", type=float,
                        default=40.0, help="raster dynamic range in dB (default %(default)g)")
    imaged.add_argument("--workers", type=int, default=1,
                        help="most back-projection processes, one per 1.5 M pixel-channels "
                             "at most (default %(default)d; results do not depend on it)")
    imaged.add_argument("--grid-spacing", type=float,
                        help="pixel spacing in m (default: finest predicted rho / 4)")
    imaged.add_argument("--grid-margin-cells", type=int, default=24,
                        help="pixels beyond the target bounding box per side (default %(default)d)")

    p = sub.add_parser("coverage", parents=[scenario],
                       help="wavenumber coverage and predicted resolution")
    p.add_argument("--n-freq", type=int, default=64,
                   help="frequencies per channel in coverage.csv (default %(default)d; "
                        "prediction uses the band edges)")
    p.add_argument("--baseband", action="store_true", help="emit base-band tiles")

    sub.add_parser("simulate", parents=[scenario, sampling], help="raw channel records")

    sub.add_parser("image", parents=[imaged], help="per-pair back-projected images")

    p = sub.add_parser("fuse", parents=[imaged], help="fused image and metrics")
    p.add_argument("--mode", choices=("incoherent", "coherent"),
                   help="how to fuse the pair images (default %(default)s)")
    p.add_argument("--pairs", dest="pair_scope", choices=("mono", "all"),
                   help="fuse monostatic pairs only, or every active pair (default %(default)s)")

    p = sub.add_parser("orchestrate", parents=[imaged],
                       help="tessellated plan plus end-to-end fused image")
    p.add_argument("--L", dest="plan_count", type=int,
                   help="acquisitions to plan (default: every terminal of the scenario)")
    p.add_argument("--psi0-deg", type=float, default=90.0,
                   help="first observation angle in degrees (default %(default)g, broadside)")

    sub.add_parser("report", parents=[output], help="aggregate metrics across a directory of runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
