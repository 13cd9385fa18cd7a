"""Property tests of the back-projection kernel on random small
acquisitions: 1-3 terminals with 1-2 Tx and 1-3 Rx elements each (up to
6 where blocks of Rx elements are tested) and a random association
matrix, synthesized into one ``Records`` array of whole pairs."""

import cmath
import math
import os
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from netrad import imaging
from netrad.imaging import (
    _carrier_phase,
    _check_window,
    _delay_map,
    _keys_resample,
    _keys_taps,
    pair_images,
)
from netrad.scene import AssociationMatrix, ImageGrid, PointTarget, Scenario, Terminal, Vec2
from netrad.synth import bistatic_delay, suggest_window, synthesize
from helpers import BW, F0, brute_force_backprojection

WORKERS = (1, 2, 3, 8)


@pytest.fixture(autouse=True, scope="module")
def three_cpus():
    """Three CPUs whatever the host has, and bands that repay their fork
    at any size, so that WORKERS image in 1, 2, 3 and 3 row bands on
    grids of as many rows."""
    with patch.object(os, "cpu_count", return_value=3), patch.object(imaging, "_BAND_PIXCH", 1):
        yield


@st.composite
def acquisitions(draw, max_rx=3):
    offset = st.floats(-0.1, 0.1)
    n_terms = draw(st.integers(1, 3))
    terminals = []
    for i in range(n_terms):
        center = Vec2((i - (n_terms - 1) / 2) * 0.7 + draw(offset), draw(offset))
        tx = tuple(
            Vec2(center.x + draw(offset), center.y + draw(offset))
            for _ in range(draw(st.integers(1, 2)))
        )
        rx = tuple(
            Vec2(center.x + draw(offset), center.y + draw(offset))
            for _ in range(draw(st.integers(1, max_rx)))
        )
        terminals.append(Terminal(i, center, tx, rx))
    entries = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n_terms**2, max_size=n_terms**2))
    ).reshape(n_terms, n_terms)
    assume(entries.any())
    target = Vec2(draw(st.floats(-0.5, 0.5)), draw(st.floats(8.0, 12.0)))
    scenario = Scenario(
        terminals=tuple(terminals),
        targets=(PointTarget(target),),
        f0=F0,
        bandwidth=BW,
        noise_power=draw(st.sampled_from([0.0, 0.1])),
        pairing=AssociationMatrix(entries),
        rng_seed=draw(st.integers(0, 99)),
    )
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    spacing = draw(st.floats(0.02, 0.2))
    grid = ImageGrid(
        Vec2(target.x - spacing * (nx - 1) / 2, target.y - spacing * (ny - 1) / 2),
        (spacing, spacing),
        (nx, ny),
    )
    return scenario, grid, synthesize(scenario, suggest_window(scenario, grid))


def of_pairs(records, pairs):
    """The mask of the rows of ``records`` whose (tx, rx) pair is in ``pairs``."""
    return (records.channels[:, None, :2] == np.array(pairs)).all(axis=2).any(axis=1)


def records_of(records, pair):
    return records[of_pairs(records, [pair])]


@settings(max_examples=40, deadline=None)
@given(acquisitions())
def test_each_pair_matches_oracle(acquisition):
    sc, grid, records = acquisition
    for image in pair_images(records, sc, grid):
        oracle = brute_force_backprojection(records_of(records, image.provenance), sc, grid)
        peak = np.abs(oracle).max()
        np.testing.assert_allclose(image.pixels, oracle, rtol=1e-9, atol=1e-9 * peak)


@settings(max_examples=40, deadline=None)
@given(acquisitions(), st.sampled_from(WORKERS))
def test_pairs_do_not_depend_on_workers_or_neighbours(acquisition, pair_workers):
    sc, grid, records = acquisition
    images = pair_images(records, sc, grid)
    # the records' pair order
    assert [im.provenance for im in images] == list(dict.fromkeys(map(tuple, records.channels[:, :2].tolist())))
    for workers in WORKERS[1:]:
        again = pair_images(records, sc, grid, workers=workers)
        assert [im.provenance for im in again] == [im.provenance for im in images]
        for a, b in zip(images, again):
            assert np.array_equal(a.pixels, b.pixels)
    # a pair imaged alone, with its own worker count, gives the same bits
    for image in images:
        (alone,) = pair_images(records_of(records, image.provenance), sc, grid, workers=pair_workers)
        assert np.array_equal(alone.pixels, image.pixels)


def with_block(per_block, grid):
    """Set the kernel's byte budget so that it batches ``per_block`` Rx
    elements on ``grid``."""
    element = imaging._PIXCH_BYTES * grid.size[0] * grid.size[1]
    return patch.object(imaging, "_BLOCK_BYTES", per_block * element + element - 1)


@settings(max_examples=40, deadline=None)
@given(acquisitions(max_rx=6), st.data())
def test_blocks_keep_each_pixel_sum_in_order(acquisition, data):
    # blocks of 1, 2, 4 and 5 Rx elements: with up to 6 elements per
    # terminal the last block is often partial; dropped pairs leave
    # receive terminals without some Tx terminals, and records with one
    # more leading sample start one sample earlier
    sc, grid, records = acquisition
    pairs = list(dict.fromkeys(map(tuple, records.channels[:, :2].tolist())))
    kept = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    if any(kept):
        records = records[of_pairs(records, [pair for pair, keep in zip(pairs, kept) if keep])]
    if data.draw(st.booleans()):
        records = replace(records, t0=records.t0 - 1 / records.fs, samples=np.pad(records.samples, ((0, 0), (1, 0))))
    with with_block(1, grid):
        images = pair_images(records, sc, grid)
    for image in images:
        oracle = brute_force_backprojection(records_of(records, image.provenance), sc, grid)
        peak = np.abs(oracle).max()
        np.testing.assert_allclose(image.pixels, oracle, rtol=1e-9, atol=1e-9 * peak)
    for per_block in (1, 2, 4, 5):
        with with_block(per_block, grid):
            for workers in WORKERS:
                again = pair_images(records, sc, grid, workers=workers)
                assert [im.provenance for im in again] == [im.provenance for im in images]
                for a, b in zip(images, again):
                    assert np.array_equal(a.pixels, b.pixels), (per_block, workers)


def test_block_constant_grids():
    """Grids sized from the kernel's own byte budget, on which the 5 Rx
    elements of one terminal run as blocks of 2, 2 and 1, or one at a
    time."""
    terminal = Terminal(0, Vec2(0.0, 0.0), (Vec2(0.0, 0.0),),
                        tuple(Vec2(0.005 * i - 0.01, 0.0) for i in range(5)))
    sc = Scenario(terminals=(terminal,), targets=(PointTarget(Vec2(0.02, 10.0)),), f0=F0,
                  bandwidth=BW, noise_power=0.1, pairing=AssociationMatrix.identity(1))
    ny, budget, pixch_bytes = 64, imaging._BLOCK_BYTES, imaging._PIXCH_BYTES
    for per_block in (2, 1):
        nx = budget // (pixch_bytes * per_block * ny) - (per_block == 1)
        assert imaging._block_elements(nx * ny) == per_block
        grid = ImageGrid(Vec2(-0.3, 9.7), (0.6 / (nx - 1), 0.6 / (ny - 1)), (nx, ny))
        records = synthesize(sc, suggest_window(sc, grid))
        (image,) = pair_images(records, sc, grid)
        oracle = brute_force_backprojection(records, sc, grid)
        np.testing.assert_allclose(image.pixels, oracle, rtol=1e-9, atol=1e-9 * np.abs(oracle).max())
        with with_block(1, grid):
            assert np.array_equal(pair_images(records, sc, grid)[0].pixels, image.pixels)
        for workers in WORKERS[1:]:
            again = pair_images(records, sc, grid, workers=workers)
            assert np.array_equal(again[0].pixels, image.pixels)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(2, 40), st.integers(0, 99))
def test_stacked_records_interpolate_as_single_records(count, n, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    # delays (t0 = 0, fs = 1: sample positions) anywhere in each record,
    # on its first and last sample and one ulp past the last, where
    # rounding can put the delay of a window edge
    tau = np.array([[rng.uniform(0, n - 1, 4).tolist() + [0.0, n - 1, np.nextafter(n - 1, n)]]
                    for _ in samples])

    def buffers(shape):
        return (np.empty(shape, dtype=np.intp), np.empty(shape, dtype=complex),
                np.empty(shape, dtype=complex))

    stacked = imaging._interp_linear(samples, 0.0, 1.0, tau.copy(), buffers(tau.shape)).copy()
    for c, (row, value) in enumerate(zip(tau, stacked)):
        alone = imaging._interp_linear(samples[c:c + 1], 0.0, 1.0, row[None].copy(), buffers((1, *row.shape)))
        assert np.array_equal(alone[0], value)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]),
    st.floats(-0.5, 0.5),
    st.floats(8.0, 12.0),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    st.floats(-2e-9, 2e-9),
    st.integers(0, 99),
)
def test_linear_kernel_meets_its_error_bound(oversample, x, y, beta, sync, seed):
    """Against the analytic record of a noiseless target,
    beta * exp(-j*2*pi*f0*(tau + dt)) * sinc(B*(t - tau - dt)), the
    kernel's error anywhere in the window stays within h^2/8 * max|g''|
    = pi^2 * (B/fs)^2 / 24 * |beta| of linear interpolation at step
    h = 1/fs: the brute-force oracle interpolates the same way and cannot
    see this error."""
    fs, target = oversample * BW, Vec2(x, y)
    terminals = tuple(
        Terminal(i, Vec2(0.7 * i, 0.0), (Vec2(0.7 * i, 0.0),),
                 tuple(Vec2(0.7 * i + 0.005 * m, 0.0) for m in range(2)))
        for i in range(2)
    )
    sc = Scenario(terminals=terminals, targets=(PointTarget(target, beta),), f0=F0, bandwidth=BW,
                  noise_power=0.0, pairing=AssociationMatrix.full(2),
                  sync_errors=np.array([[0.0, sync], [-sync, 0.0]]))
    rng = np.random.default_rng(seed)
    bound = math.pi**2 * (BW / fs) ** 2 / 24 * abs(beta) + 1e-12
    for rec in synthesize(sc, suggest_window(sc), fs=fs):
        l, k, n, m = rec.channels.tolist()
        tau = (bistatic_delay(Vec2(*terminals[l].tx_elements[n]), Vec2(*terminals[k].rx_elements[m]), target)
               + sc.sync_errors[l, k])
        # anywhere in the window, and within two samples of the peak
        t = np.concatenate((rng.uniform(rec.t0, rec.t_end, 200), tau + rng.uniform(-2, 2, 200) / fs))
        shape = (1, 1, t.size)
        work = (np.empty(shape, dtype=np.intp), np.empty(shape, dtype=complex),
                np.empty(shape, dtype=complex))
        vals = imaging._interp_linear(rec.samples[None], rec.t0, rec.fs, t.reshape(shape).copy(), work)[0, 0]
        exact = beta * np.exp(-2j * math.pi * F0 * tau) * np.sinc(BW * (t - tau))
        assert np.abs(vals - exact).max() <= bound, (l, k, n, m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2e5, 2e5), min_size=1, max_size=64))
def test_carrier_phase_matches_cmath(angles):
    theta = np.array(angles)
    shape = theta.shape
    work = (np.empty(shape, dtype=np.intp), np.empty(shape, dtype=complex),
            np.empty(shape, dtype=complex))
    phase = _carrier_phase(theta.copy(), np.empty(shape, dtype=complex), work)
    for t, z in zip(angles, phase.tolist()):
        assert abs(z - cmath.exp(1j * t)) <= 4 * np.spacing(abs(t)) + 1e-15, t


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.floats(-30, 30), st.floats(-30, 30),
       st.floats(1e-3, 0.5), st.floats(1e-3, 0.5),
       st.lists(st.tuples(st.floats(-1, 2), st.floats(-1, 2)), min_size=1, max_size=4))
def test_reach_bounds_map_extremes(nx, ny, x0, y0, sx, sy, spans):
    # an element sits inside the grid's span where both fractions are in [0, 1]
    grid = ImageGrid(Vec2(x0, y0), (sx, sy), (nx, ny))
    x, y = grid.x_coords[:, None], grid.y_coords[None, :]
    points = [(x0 + u * sx * (nx - 1), y0 + v * sy * (ny - 1)) for u, v in spans]
    maps = [_delay_map(a, b, x, y) for a, b in points]
    near, far = grid.reach(points).tolist()
    assert all(lo <= d.min() for lo, d in zip(near, maps))
    assert far == [d.max() for d in maps]
    assert grid.reach(points[0]).ravel().tolist() == [near[0], far[0]]


def pixel_delays(rec, sc, grid):
    """The kernel's per-pixel delays of the one channel ``rec``: Tx map
    plus Rx map."""
    x, y = grid.x_coords[:, None], grid.y_coords[None, :]
    l, k, n, m = rec.channels.tolist()
    tx, rx = sc.terminals[l].tx_elements[n], sc.terminals[k].rx_elements[m]
    return _delay_map(*tx, x, y) + _delay_map(*rx, x, y)


def first_window_error(records, sc, grid):
    """The message of the first record, in row order, whose exact
    per-pixel delays leave its window; None if none."""
    for rec in records:
        try:
            _check_window(rec, pixel_delays(rec, sc, grid))
        except ValueError as err:
            return str(err)
    return None


@settings(max_examples=60, deadline=None)
@given(acquisitions(), st.data())
def test_window_bound_raises_exactly_when_exact_check_does(acquisition, data):
    sc, grid, records = acquisition
    # move the records' one window so that an edge lands inside, on, one
    # ulp inside or just outside the span of a drawn channel's pixel delays
    tau = pixel_delays(records[data.draw(st.integers(0, len(records) - 1))], sc, grid)
    lo, hi = float(tau.min()), float(tau.max())
    edge = data.draw(
        st.sampled_from([lo, float(np.nextafter(lo, np.inf)), hi, float(np.nextafter(hi, 0))])
        | st.floats(-0.5, 1.5).map(lambda u: lo + u * (hi - lo))
    )
    side = data.draw(st.sampled_from(["keep", "t0", "t_end"]))
    moved = records
    if side == "t0":
        moved = replace(records, t0=edge)
    elif side == "t_end":
        moved = replace(records, t0=edge - (records.samples.shape[1] - 1) / records.fs)
    expected = first_window_error(moved, sc, grid)
    for workers in WORKERS:
        if expected is None:
            pair_images(moved, sc, grid, workers=workers)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                pair_images(moved, sc, grid, workers=workers)


def envelope_positions(n, fractions):
    """Positions, in coarse samples, that a fine grid takes on an envelope
    axis of n samples: two samples in from the low end and at least two
    from the high end."""
    return 2.0 + np.array(fractions) * (n - 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(5, 60), st.lists(st.floats(0, 1), min_size=1, max_size=40))
def test_keys_weights_sum_to_one(n, fractions):
    first, weights = _keys_taps(envelope_positions(n, fractions), n)
    assert first.min() >= 0 and first.max() + 3 <= n - 1
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.integers(5, 30), st.integers(5, 30),
       st.lists(st.floats(-10, 10), min_size=6, max_size=6),
       st.lists(st.floats(0, 1), min_size=1, max_size=20),
       st.lists(st.floats(0, 1), min_size=1, max_size=20))
def test_keys_resampling_reproduces_quadratics(nx, ny, coeffs, fx, fy):
    # a product of quadratics in each axis, sampled on the coarse grid
    def quadratic(c, v):
        return c[0] + c[1] * v + c[2] * v * v

    u, v = envelope_positions(nx, fx), envelope_positions(ny, fy)
    values = (1 - 2j) * quadratic(coeffs[:3], np.arange(nx))[:, None] * quadratic(coeffs[3:], np.arange(ny))
    out = _keys_resample(values, [_keys_taps(u, nx), _keys_taps(v, ny)], np.empty((len(u), len(v)), complex))
    exact = (1 - 2j) * quadratic(coeffs[:3], u)[:, None] * quadratic(coeffs[3:], v)
    assert np.abs(out - exact).max() <= 1e-12 * max(np.abs(values).max(), 1.0)
