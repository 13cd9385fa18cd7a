"""Property tests of the image-quality figures on random separable
sinc and Gaussian images with a resolved interior peak: the one record
of `compute_metrics` holds exactly what the separate calls measure."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netrad.imaging import ComplexImage
from netrad.metrics import compute_metrics, islr, measure_resolution, peak_snr, pslr
from netrad.scene import ImageGrid, Vec2

SPACING = 0.05


@st.composite
def lobe_images(draw):
    """(image, true peak position): a separable lobe at most half a pixel
    off the grid, at least 3 samples wide at -3 dB on both axes, on a grid
    wide enough for 100 background pixels beyond 10 resolution cells."""
    n = draw(st.integers(50, 60)) * 2 + 1
    offset = st.floats(-0.5, 0.5)
    center = Vec2(draw(offset) * SPACING, draw(offset) * SPACING)
    grid = ImageGrid(Vec2(-(n // 2) * SPACING, -(n // 2) * SPACING), (SPACING, SPACING), (n, n))
    x, y = grid.pixel_coords()
    dx, dy = x - center.x, y - center.y
    if draw(st.booleans()):
        w = draw(st.floats(4.0, 5.0)) * SPACING
        pixels = np.sinc(dx / w) * np.sinc(dy / w)
    else:
        sigma = draw(st.floats(2.0, 2.5)) * SPACING
        pixels = np.exp(-0.5 * (dx ** 2 + dy ** 2) / sigma ** 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 1e-3])) * (
        rng.standard_normal(pixels.shape) + 1j * rng.standard_normal(pixels.shape)
    )
    scale = complex(draw(st.floats(0.1, 10.0)), draw(st.floats(-10.0, 10.0)))
    return ComplexImage(grid=grid, pixels=scale * (pixels + noise), provenance=(0, 0)), center


@settings(max_examples=40, deadline=None)
@given(lobe_images())
def test_compute_metrics_equals_separate_calls(case):
    image, truth = case
    m = compute_metrics(image, truth)
    assert m.rho_x_meas == measure_resolution(image, "x")
    assert m.rho_y_meas == measure_resolution(image, "y")
    assert m.pslr_db == pslr(image)
    assert m.islr_db == islr(image)
    assert m.peak_snr_db == peak_snr(image, truth)
