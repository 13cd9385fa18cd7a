"""What the benchmark (perfbench/) reads of the library: the span
tracer replaces each (module, attribute) of its TARGETS by name and counts
coverage samples through ``WavenumberRegion.tiles``; the workloads of
perfbench/ops.py pass their command lines to ``cli.main`` and call
``orchestrate.plan`` with ``objective=``; perfbench/run.py replays the
CLI's back-projection call with ``workers=1``. A rename or deletion in the
library fails here instead of crashing a benchmark run."""

import importlib.util
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from netrad import cli, imaging
from netrad.scene import AssociationMatrix
from netrad.wavenumber import coverage_region
from helpers import TARGET, lane_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCENARIOS = PERFBENCH.parent / "scenarios"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


@pytest.fixture(scope="module")
def ops():
    return load("ops")


def test_every_traced_target_exists(spans):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_region_tiles_are_its_sample_rows(spans):
    sc = lane_scenario(n_terminals=2, m_rx=3, pairing=AssociationMatrix.full(2))
    region = coverage_region(sc, TARGET, n_freq=4)
    tiles = region.tiles
    assert [tile.pair for tile in tiles] == [tuple(channel) for channel in region.channels.tolist()]
    for tile, samples in zip(tiles, region.samples, strict=True):
        assert np.array_equal(tile.samples, samples)
    assert spans._tile_samples((), {}, region) == {"tile_samples": 12 * 4}


@pytest.mark.parametrize("workload", ["lane_fuse", "wide_fuse", "plan_coverage"])
def test_workload_command_lines_parse(ops, workload, tmp_path):
    # each command line is parsed, not run; the coverage workload then plans
    # on the op's scenario with the objective it names
    argvs = []

    def parse(argv):
        argvs.append(argv)
        cli._build_parser().parse_args(argv)  # exits 2 on an option the CLI lacks
        return 0

    op = ops.write_op(ops.reference_doc(), tmp_path)
    with patch.object(cli, "main", parse):
        ops.WORKLOADS[workload].run(op)
    assert len(argvs) == 1
    if workload == "plan_coverage":
        assert op.plan is not None


def test_back_projection_replays_with_one_worker(tmp_path):
    # perfbench/run.py times the CLI's last pair_images call again with
    # workers=1 to read the speed-up of the CLI's own worker count
    with patch.object(imaging, "pair_images", wraps=imaging.pair_images) as call:
        assert cli.main(["fuse", "--scenario", str(SCENARIOS / "lane_single_terminal.json"),
                         "--workers", "2", "--out", str(tmp_path)]) == 0
    args, kwargs = call.call_args
    assert kwargs["workers"] == 2
    (serial,) = imaging.pair_images(*args, **{**kwargs, "workers": 1})
    (image,) = imaging.pair_images(*args, **kwargs)
    assert np.array_equal(serial.pixels, image.pixels)
