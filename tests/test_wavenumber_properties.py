"""Property tests of the resolution prediction on random small
acquisitions: 1-3 terminals anywhere around the target with 1-2 Tx and
1-3 Rx elements each, a random association matrix, pass-band and
base-band coverage, and several frequency sampling densities."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from netrad.scene import SPEED_OF_LIGHT, AssociationMatrix, PointTarget, Scenario, Terminal, Vec2
from netrad.wavenumber import (
    convex_hull,
    coverage_region,
    polygon_area,
    predicted_resolution,
)
from helpers import BW, F0, TARGET


@st.composite
def acquisitions(draw):
    offset = st.floats(-0.5, 0.5)
    n_terms = draw(st.integers(1, 3))
    terminals = []
    for i in range(n_terms):
        angle, rng = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(5.0, 30.0))
        center = Vec2(TARGET.x - rng * math.cos(angle), TARGET.y - rng * math.sin(angle))
        tx = tuple(Vec2(center.x + draw(offset), center.y + draw(offset))
                   for _ in range(draw(st.integers(1, 2))))
        rx = tuple(Vec2(center.x + draw(offset), center.y + draw(offset))
                   for _ in range(draw(st.integers(1, 3))))
        terminals.append(Terminal(i, center, tx, rx))
    entries = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n_terms**2, max_size=n_terms**2))
    ).reshape(n_terms, n_terms)
    assume(entries.any())
    return Scenario(
        terminals=tuple(terminals),
        targets=(PointTarget(TARGET),),
        f0=F0,
        bandwidth=draw(st.sampled_from([BW, 100e6, 0.0])),
        pairing=AssociationMatrix(entries),
    )


def distance_outside(point, hull: np.ndarray) -> float:
    """How far ``point`` lies outside a counter-clockwise convex hull
    (0 inside); a hull of one or two vertices is a point or a segment."""
    if len(hull) < 3:
        a, b = hull[0], hull[-1]
        ab = b - a
        t = 0.0 if not ab.any() else np.clip(np.dot(point - a, ab) / np.dot(ab, ab), 0, 1)
        return float(np.hypot(*(point - (a + t * ab))))
    out = 0.0
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        edge = b - a
        cross = edge[0] * (point[1] - a[1]) - edge[1] * (point[0] - a[0])
        out = max(out, -cross / np.hypot(*edge))
    return out


@settings(max_examples=60, deadline=None)
@given(acquisitions(), st.booleans(), st.sampled_from([2, 3, 16, 64]))
def test_prediction_from_band_edges_matches_dense_sampling(scenario, baseband, n_freq):
    dense = coverage_region(scenario, TARGET, n_freq=n_freq, baseband=baseband)
    samples = dense.samples.reshape(-1, 2)
    est = predicted_resolution(dense)

    # extents are those of every sample, exactly
    assert est.dk_x == samples[:, 0].max() - samples[:, 0].min()
    assert est.dk_y == samples[:, 1].max() - samples[:, 1].min()

    # the estimate does not depend on the sampling density
    edges = predicted_resolution(coverage_region(scenario, TARGET, baseband=baseband))
    assert (est.rho_x, est.rho_y, est.dk_x, est.dk_y) == (
        edges.rho_x, edges.rho_y, edges.dk_x, edges.dk_y)
    assert np.array_equal(est.hull, edges.hull)
    assert np.array_equal(est.hull, convex_hull(dense.samples[:, [0, -1]].reshape(-1, 2)))

    # the hull of the band edges is the hull of every sample: no sample
    # lies farther than tol outside it, so the areas differ by at most a
    # band of width tol along its perimeter (what a rounding-noise sliver
    # of collinear samples adds)
    hull = est.hull
    tol = 1e-9 * (float(np.abs(samples).max()) or 1.0)
    for point in samples:
        assert distance_outside(point, hull) <= tol
    perimeter = np.hypot(*np.diff(np.vstack([hull, hull[:1]]), axis=0).T).sum()
    assert polygon_area(hull) == pytest.approx(
        polygon_area(convex_hull(samples)), rel=1e-9, abs=perimeter * tol)


@settings(max_examples=40, deadline=None)
@given(acquisitions(), st.booleans(), st.sampled_from([2, 3, 16]))
def test_region_tiles_equal_per_channel_segments(scenario, baseband, n_freq):
    region = coverage_region(scenario, TARGET, n_freq=n_freq, baseband=baseband)
    assert region.channels.tolist() == [
        [l, k, n, m]
        for l, k in scenario.pairing.active_pairs()
        for n in range(len(scenario.terminals[l].tx_elements))
        for m in range(len(scenario.terminals[k].rx_elements))
    ]
    assert region.samples.shape == (len(region.channels), n_freq, 2)
    # closed form: k* = (2 pi (f - f0 baseband) / c) (u_tx + u_rx), within
    # 1e-12 of the monostatic magnitude 2 |scale| at each frequency
    freqs = np.linspace(F0 - scenario.bandwidth / 2, F0 + scenario.bandwidth / 2, n_freq)
    np.testing.assert_allclose(region.freqs, freqs, rtol=1e-12)
    scale = 2 * math.pi * (freqs - (F0 if baseband else 0.0)) / SPEED_OF_LIGHT
    target = np.array([TARGET.x, TARGET.y])
    for pair, samples, tile in zip(map(tuple, region.channels.tolist()), region.samples, region.tiles, strict=True):
        l, k, n, m = pair
        elements = (scenario.terminals[l].tx_elements[n], scenario.terminals[k].rx_elements[m])
        u_tx, u_rx = ((target - e) / np.linalg.norm(target - e) for e in map(np.asarray, elements))
        ref = scale[:, None] * (u_tx + u_rx)
        assert np.all(np.abs(samples - ref) <= 1e-12 * 2 * np.abs(scale)[:, None])
        # tiles are per-channel views of the region's one array
        assert tile.pair == pair and np.shares_memory(tile.samples, region.samples)
        assert tile.samples.tobytes() == samples.tobytes() and tile.freqs is region.freqs


@pytest.mark.parametrize("kind, channel", [("tx", "(0,1,1,0)"), ("rx", "(0,1,0,1)")])
def test_first_degenerate_channel_is_named(kind, channel):
    on_target = (TARGET,) * 2 if kind == "tx" else (Vec2(1, 1), TARGET, TARGET)
    tx = (Vec2(0, 0), TARGET) if kind == "tx" else (Vec2(0, 0), Vec2(0, 1))
    rx = on_target if kind == "rx" else (Vec2(1, 0),)
    scenario = Scenario(
        terminals=(Terminal(0, Vec2(0, 0), tx, ()), Terminal(1, Vec2(1, 0), (), rx)),
        targets=(PointTarget(TARGET),), f0=F0, bandwidth=BW,
        pairing=AssociationMatrix(np.array([[0, 1], [0, 0]])),
    )
    with pytest.raises(ValueError) as err:
        coverage_region(scenario, TARGET)
    assert str(err.value) == (
        f"channel {channel}: degenerate geometry: {kind} element coincides with the target")
