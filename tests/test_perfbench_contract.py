"""What the benchmark's span tracer (perfbench/spans.py) reads of the
library: it replaces each (module, attribute) of its TARGETS by name and
counts coverage samples through ``WavenumberRegion.tiles``. A rename or
deletion in the library fails here instead of crashing a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from netrad.scene import AssociationMatrix
from netrad.wavenumber import coverage_region
from helpers import TARGET, lane_scenario

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(spans):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_region_tiles_are_its_sample_rows(spans):
    sc = lane_scenario(n_terminals=2, m_rx=3, pairing=AssociationMatrix.full(2))
    region = coverage_region(sc, TARGET, n_freq=4)
    tiles = region.tiles
    assert [tile.pair for tile in tiles] == list(region.pairs)
    for tile, samples in zip(tiles, region.samples, strict=True):
        assert np.array_equal(tile.samples, samples)
    assert spans._tile_samples((), {}, region) == {"tile_samples": 12 * 4}
