"""Property tests of the CSV writers: on random small coverages, images
and records whose values sit at the edges of the 9-digit format, each
writer equals its reference writer in test_exports, which formats every
row with its own f-string; and the row writer formats every float64 as
Python's ``'%.9g' % v`` does."""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netrad.csvrows import write_csv
from netrad.imaging import ComplexImage, export_image_csv
from netrad.scene import ImageGrid, Vec2
from netrad.synth import Records, export_record_csv
from netrad.wavenumber import WavenumberRegion, export_coverage_csv
from test_exports import (FORMAT_EDGES, reference_coverage_csv, reference_image_csv,
                          reference_record_csv)

FINITE_EDGE = [0.0, -0.0, 5e-324, -2.5e-310, 1e21, -1e21, 123456789.5, -123456789.5]
finite = st.one_of(st.sampled_from(FINITE_EDGE), st.floats(allow_nan=False, allow_infinity=False))
values = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), finite)
coordinates = st.one_of(st.sampled_from(FINITE_EDGE), st.floats(-1e300, 1e300))  # no overflow


def arrays(draw, shape):
    return np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape))),
                    float).reshape(shape)


@st.composite
def regions(draw):
    n_channels, n_freq = draw(st.integers(1, 4)), draw(st.integers(2, 9))
    index = st.one_of(st.integers(0, 9), st.integers(10, 12345))  # one and several digits
    channels = np.array([[draw(index) for _ in range(4)] for _ in range(n_channels)])
    return WavenumberRegion(channels=channels, samples=arrays(draw, (n_channels, n_freq, 2)),
                            freqs=arrays(draw, (n_freq,)))


@st.composite
def images(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    spacing = st.one_of(st.sampled_from([5e-324, 1e-5, 123456789.5, 1e21]),
                        st.floats(1e-300, 1e300))
    grid = ImageGrid(Vec2(draw(coordinates), draw(coordinates)), (draw(spacing), draw(spacing)),
                     (nx, ny))
    transposed = draw(st.booleans())  # pixels that are not C-contiguous
    pixels = np.empty((ny, nx), complex).T if transposed else np.empty((nx, ny), complex)
    pixels.real, pixels.imag = arrays(draw, (nx, ny)), arrays(draw, (nx, ny))
    return ComplexImage(grid, pixels, (0, 0))


@settings(max_examples=200, deadline=None)
@given(regions())
def test_coverage_csv_matches_reference(tmp_path_factory, region):
    path = tmp_path_factory.mktemp("coverage") / "coverage.csv"
    export_coverage_csv(region, path)
    assert path.read_text() == reference_coverage_csv(region)


@settings(max_examples=200, deadline=None)
@given(images())
def test_image_csv_matches_reference(tmp_path_factory, image):
    path = tmp_path_factory.mktemp("image") / "image.csv"
    export_image_csv(image, path)
    assert path.read_text() == reference_image_csv(image)


@st.composite
def records(draw):
    n = draw(st.integers(1, 9))
    rate = st.one_of(st.sampled_from([1e-5, 123456789.5, 1e21]), st.floats(1e-300, 1e300))  # no overflow
    samples = np.empty(n, complex)
    samples.real, samples.imag = arrays(draw, (n,)), arrays(draw, (n,))
    return Records(channels=np.array((0, 1, 2, 3)), samples=samples, t0=draw(coordinates), fs=draw(rate))


@settings(max_examples=200, deadline=None)
@given(records())
def test_record_csv_matches_reference(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("record") / "record.csv"
    export_record_csv(record, path)
    assert path.read_text() == reference_record_csv(record)


# every float64: finite, subnormal, +-0, +-inf and NaN with any payload
bit_patterns = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
signs = st.sampled_from([1.0, -1.0])
# (m + 1/2) / 10**k for 9-digit m: the scaled value's fraction is near one half
near_ties = st.builds(lambda m, k, sign: sign * (m + 0.5) / 10**k,
                      st.integers(10**8, 10**9 - 1), st.integers(-1, 13), signs)
fixed_notation = st.builds(lambda v, sign: sign * v, st.floats(1e-5, 2e9), signs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(bit_patterns, near_ties, st.sampled_from(FORMAT_EDGES), fixed_notation),
                min_size=1, max_size=64))
def test_numbers_match_python_value_by_value(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("numbers") / "numbers.csv"
    write_csv(path, "v", np.array(values, float)[:, None, None])
    assert path.read_text().splitlines() == ["v", *("%.9g" % v for v in values)]
