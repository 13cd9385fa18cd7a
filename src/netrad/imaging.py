"""Image formation by time-domain back-projection.

For each pixel x and each measurement channel, the record is linearly
interpolated at the pixel's bistatic delay tau(x), rotated by
exp(+j*2*pi*f0*tau(x)) to undo the carrier phase, and accumulated:

    I(x) = sum_n sum_m y_nm(t = tau_nm(x)) * exp(j*2*pi*f0*tau_nm(x))

At the true position of a noiseless target all channel contributions add
in phase. The formulation is valid for any geometry (near field or far
field, monostatic or bistatic); the spectral ramp filter is omitted,
which is the usual approximation when f0 >> B.

The carrier phase factors into a Tx and an Rx part, so one delay map
per Tx element and one delay map and phase per Rx element serve every
pair using the element. Records hold whole pairs (``synth.Records``), so
each (pair, Tx element) is a run of rows by ascending Rx element, summed
in order without the Tx phase; Tx phases are applied last, by ascending
Tx element. Workers split the x rows into equal bands, each imaged by a
forked process into one shared mapping: one band per _BAND_PIXCH
pixel-channels, as a smaller band does not repay its fork, and at most
one per row, worker and CPU. A band takes Rx elements in blocks of B =
max(1, _BLOCK_BYTES // (_PIXCH_BYTES * band pixels)), in buffers it
allocates once for every receive terminal: each numpy call of a
channel's op chain covers the block's rows of one (pair, Tx element),
which are then added one after another. The order is fixed per pixel: a
pair's image is bit-identical for any worker count, block size and
co-imaged pairs.

A delay map is r/c with r the square root of the broadcast squared x and
y offsets, so a channel's delay tau(x) is one add of a Tx and an Rx map.
Phases exp(j*theta) come from a table of exp(2*pi*j*k/T) times a short
Taylor series in the residual angle, within a few units of the last
place of theta of the exact value. Every channel's window is checked
once, before any band runs, against the bound that
``synth.suggest_window`` sizes windows from, ``synth.pixel_delay_bounds``.
Rounding is monotone, so it passes no pixel the exact per-pixel check
would reject; that check runs, with its message and in row order, only
for a window the bound fails, so that the first failing row is named.

The CLI sizes every grid of a run from one coverage region, at the targets'
box centre; ``default_spacing`` holds the pitch rule. It images each pair
in two steps. A pair's image holds only its own wavenumber tile: it is a
reference carrier exp(j*omega*tau_ref), tau_ref the delay through the
pair's mean Tx and mean Rx element, times an envelope about one single-pair
rho wide. ``envelope_grid`` returns the grid to back-project on: a coarse
pitch of the region's finest single-pair rho / 8 per axis, two cells beyond
the fine grid per side, or the fine grid where that saves no pixel-channels.
``pair_images`` images on it; ``upsample_envelopes`` divides out the carrier,
upsamples the envelope with separable four-tap Keys cubic weights, restores
the carrier on the fine grid and passes images already on it through. On the
25-pair lane the result is within 2.4e-3 (49x49) and 3.2e-3 (121x121) of
the fused peak, and 1.6e-2 of each pair's peak, of ``pair_images`` on the
same records; ``pair_images`` and ``point_spread`` stay exact.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from dataclasses import dataclass, replace

import numpy as np

from .csvrows import write_csv
from .scene import SPEED_OF_LIGHT, ImageGrid, PointTarget, Scenario, Vec2, channel_table, pair_rows
from .synth import Records, pixel_delay_bounds, suggest_window, synthesize
from .wavenumber import TWO_PI, WavenumberRegion, coverage_region, predicted_resolution

# bytes per pixel-channel of a block's op chain, kernel buffers included,
# as tracemalloc measures them (tests/test_imaging.py checks the budget)
_PIXCH_BYTES = 72
# Working set of a band's numpy calls in bytes; divided by _PIXCH_BYTES
# and the band's pixels it gives the Rx elements of a block: 12 on 49x49
# and 2 on 121x121, 119 and 29 on the lane's 16x16 and 32x32 envelope
# grids, in one band. Small grids are bound by the call count.
_BLOCK_BYTES = 2_200_000
# pixel-channels a band must image to repay its fork: on the 25-pair lane
# at two workers and two CPUs (scripts/bp_timing.py, every band forked), two
# bands ran at 0.64-0.68x the speed of one on 16x16 to 24x24 grids (0.86 M to
# 1.93 M pixel-channels), 0.76-1.01x on 32x32 (3.43 M) and 1.2-1.7x from
# 36x36 (4.34 M) up
_BAND_PIXCH = 1_500_000
# coarse pixels per finest single-pair rho on each axis of an envelope grid
_ENVELOPE_CELLS_PER_RHO = 8
# Keys cubic convolution parameter: -0.5 is the one that reproduces quadratics
_KEYS_A = -0.5
# upsampling one pixel of one pair image costs about as much as this many
# pixel-channels of back-projection (3.3 to 4.1 at 121x121 and 5.3 to 6.7
# at 49x49 on the 25-pair lane, one worker)
_UPSAMPLE_PIXCH = 4


def _block_elements(pixels: int) -> int:
    """Rx elements per numpy call: the budget's worth, at least one."""
    return max(1, _BLOCK_BYTES // (_PIXCH_BYTES * pixels))


@dataclass(frozen=True)
class ComplexImage:
    """Complex reflectivity estimate on a pixel grid.

    ``pixels`` is shaped (nx, ny) and indexed [ix, iy]. ``provenance``
    is the (tx terminal, rx terminal) pair that produced the image, or a
    fusion label such as "fused:coh".
    """

    grid: ImageGrid
    pixels: np.ndarray
    provenance: tuple[int, int] | str

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=complex))
        if self.pixels.shape != self.grid.size:
            raise ValueError(
                f"pixel array {self.pixels.shape} does not match grid {self.grid.size}"
            )

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.pixels)


def _interp_linear(samples: np.ndarray, t0: float, fs: float, tau: np.ndarray, work) -> np.ndarray:
    """Two-point interpolation of each row ``samples[c]``, sampled from
    ``t0`` at ``fs``, at the delays ``tau[c]`` (overwritten), into the
    reused buffers ``work``; ``samples`` is a C-contiguous (c, n) array."""
    index, vals, step = work
    # the step to the next sample; a row's last sample repeats its last step
    steps = np.empty_like(samples)
    np.subtract(samples[:, 1:], samples[:, :-1], out=steps[:, :-1])
    steps[:, -1] = steps[:, -2]
    pos = np.multiply(np.subtract(tau, t0, out=tau), fs, out=tau)
    # 0 <= pos < n inside the record window: truncation is the floor and
    # every index below is in range; the floor lives in ``vals``, written
    # last, and is offset by each row's start in the flattened samples
    floor = vals.reshape(-1).view(float)[:pos.size].reshape(pos.shape)
    np.subtract(pos, np.trunc(pos, out=floor), out=pos)
    np.add(floor, np.arange(0.0, samples.size, samples.shape[1]).reshape(-1, 1, 1), out=floor)
    np.copyto(index, floor, casting="unsafe")
    np.multiply(np.take(steps, index, out=step, mode="wrap"), pos, out=vals)
    return np.add(vals, np.take(samples, index, out=step, mode="wrap"), out=vals)


def _delay_map(ex, ey, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Delay |p - e| / c from an element e = (ex, ey) to each pixel p =
    (x, y); (B, 1, 1) coordinates give the maps of B elements."""
    r2 = np.add(np.square(x - ex), np.square(y - ey), out=out)
    return np.divide(np.sqrt(r2, out=r2), SPEED_OF_LIGHT, out=r2)


_PHASE_STEPS = 4096
_PHASE_STEP = 2.0 * math.pi / _PHASE_STEPS
# exp(2*pi*j*k/T) from its first quadrant, whose rotations by j are exact
_QUARTER = np.exp(1j * _PHASE_STEP * np.arange(_PHASE_STEPS // 4))
_PHASE_TABLE = np.concatenate((_QUARTER, 1j * _QUARTER, -_QUARTER, -1j * _QUARTER))


def _carrier_phase(theta: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """exp(j*theta) into ``out`` (``theta`` is overwritten): the nearest
    table entry exp(2*pi*j*k/T) times exp(j*d) in the residual |d| <= pi/T,
    whose series is cut where its terms fall below 1e-17."""
    index, rot, table = work
    # the turns live in ``rot``, written last
    turn = rot.reshape(-1).view(float)[:theta.size].reshape(theta.shape)
    np.rint(np.multiply(theta, 1.0 / _PHASE_STEP, out=turn), out=turn)
    np.copyto(index, turn, casting="unsafe")
    np.bitwise_and(index, _PHASE_STEPS - 1, out=index)
    d = np.subtract(theta, np.multiply(turn, _PHASE_STEP, out=turn), out=theta)
    d2 = np.multiply(d, d, out=turn)
    # cos d = 1 - d^2/2 + d^4/24 and sin d = d - d^3/6, in the contiguous
    # halves of ``table`` before they are interleaved into ``rot``
    re, im = table.reshape(-1).view(float).reshape(2, *d.shape)
    np.add(np.multiply(np.subtract(np.multiply(d2, 1.0 / 24.0, out=re), 0.5, out=re), d2, out=re),
           1.0, out=re)
    np.multiply(np.subtract(1.0, np.multiply(d2, 1.0 / 6.0, out=d2), out=d2), d, out=im)
    rot.real, rot.imag = re, im
    return np.multiply(np.take(_PHASE_TABLE, index, out=table, mode="clip"), rot, out=out)


def _check_window(rec: Records, tau: np.ndarray) -> None:
    lo, hi = float(tau.min()), float(tau.max())
    if lo < rec.t0 or hi > rec.t_end:
        flat = int(np.argmin(tau) if lo < rec.t0 else np.argmax(tau))
        i, j = np.unravel_index(flat, tau.shape)
        bad = lo if lo < rec.t0 else hi
        raise ValueError(
            f"pixel ({int(i)},{int(j)}) delay {bad:g} s outside record window "
            f"[{rec.t0:g}, {rec.t_end:g}] s of channel {tuple(rec.channels.tolist())}"
        )


def _band_count(pixch: int, rows: int, workers: int) -> int:
    """Row bands to image ``pixch`` pixel-channels of ``rows`` x rows in:
    one per _BAND_PIXCH, at most one per row, worker and CPU, and one
    where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(rows, workers, os.cpu_count() or 1, pixch // _BAND_PIXCH))


def pair_images(
    records: Records,
    scenario: Scenario,
    grid: ImageGrid,
    workers: int = 1,
) -> list[ComplexImage]:
    """Back-project each Tx-Rx pair of ``records`` separately, in the
    records' pair order.

    ``records`` must hold whole pairs, as ``synth.synthesize`` writes them
    (``scene.channel_table``, sliced by ``scene.pair_rows``): every channel of
    each pair, pair by pair, in (tx element, rx element) row-major order.
    Every pair must be active and every pixel's bistatic delay must fall
    inside the records' window. Records are interpolated linearly between
    samples; ``synth.default_sample_rate`` states the error bound. Every
    channel's window is checked once, before any band runs, against its
    ``synth.pixel_delay_bounds``, from which ``suggest_window`` sizes windows.
    Equal bands of x rows are then imaged by forked processes, one band per
    _BAND_PIXCH pixel-channels, at most ``workers`` and at most one per CPU,
    in one process where ``os.fork`` is missing; the images and any error
    do not depend on their number.
    """
    x, y = grid.x_coords[:, None], grid.y_coords[None, :]
    omega = 2.0 * math.pi * scenario.f0
    terminals = scenario.terminals
    channels, samples, t0, fs = records.channels, records.samples, records.t0, records.fs
    pairs, starts = pair_rows(channels)
    pairs, starts = [tuple(pair) for pair in pairs.tolist()], starts.tolist()
    for pair in pairs:
        if not scenario.pairing.is_active(*pair):
            raise ValueError(f"pair {pair} is not active in the association matrix")
    if len(set(pairs)) < len(pairs) or not np.array_equal(channels, channel_table(scenario, pairs)):
        raise ValueError("records must hold whole pairs, each in (tx element, rx element) row-major order")
    # per receive terminal, by first appearance, its pairs' (Tx terminal, first row)
    received = {k: [(l, r) for (l, kk), r in zip(pairs, starts) if kk == k] for _, k in pairs}
    tx_delay = {l: _delay_map(*terminals[l].tx_elements.T[..., None, None], x, y) for l in {l for l, _ in pairs}}
    # the channels whose window their bounds do not clear take the exact
    # check, in row order
    near, far = pixel_delay_bounds(scenario, grid, pairs)
    for c in np.flatnonzero((near < t0) | (far > records.t_end)).tolist():
        l, k, n, m = channels[c].tolist()
        _check_window(records[c], tx_delay[l][n] + _delay_map(*terminals[k].rx_elements[m], x, y))
    # the pair images in an anonymous shared mapping that forked bands write
    nx, ny = grid.size
    stack = np.frombuffer(mmap.mmap(-1, 16 * len(pairs) * nx * ny or 1), complex, len(pairs) * nx * ny)
    pixels = dict(zip(pairs, stack.reshape(len(pairs), nx, ny)))

    def image_band(row0: int, row1: int) -> None:
        rows, shape = slice(row0, row1), (row1 - row0, ny)
        per_block = _block_elements((row1 - row0) * ny)
        # (block, rows, ny) buffers, shared by every receive terminal, and
        # their first c rows; complex products never write over an operand:
        # numpy rounds an in-place product of one element differently from a
        # longer one
        block = min(per_block, max((len(terminals[k].rx_elements) for k in received), default=1))
        buffer = functools.partial(np.empty, (block, *shape))
        rx_delay, phase, pos = buffer(), buffer(dtype=complex), buffer()
        work = (buffer(dtype=np.intp), buffer(dtype=complex), buffer(dtype=complex))
        first = functools.cache(lambda c: (pos[:c], tuple(w[:c] for w in work)))
        tx_theta, tx_phase, tx_work = pos[0], phase[0], tuple(w[0] for w in work)
        for k, sources in received.items():
            (ex, ey), n_rx = terminals[k].rx_elements.T[..., None, None], len(terminals[k].rx_elements)
            # per pair, its first row, its Tx elements' delay map rows and one
            # sum each without the Tx phase, Tx element 0's in its own pixels
            sums = [(r, tx_delay[l][:, rows], [pixels[l, k][rows], *(
                np.zeros(shape, dtype=complex) for _ in tx_delay[l][1:])]) for l, r in sources]
            for b0 in range(0, n_rx, per_block):
                b1 = min(b0 + per_block, n_rx)
                delays = _delay_map(ex[b0:b1], ey[b0:b1], x[rows], y, out=rx_delay[:b1 - b0])
                p, chain_work = first(b1 - b0)
                _carrier_phase(np.multiply(delays, omega, out=p), phase[:b1 - b0], chain_work)
                # each (pair, Tx element) holds the block's Rx elements in consecutive rows
                for r, tx_maps, accs in sums:
                    for n, (tx_map, acc) in enumerate(zip(tx_maps, accs)):
                        at = slice(r + n * n_rx + b0, r + n * n_rx + b1)
                        vals = _interp_linear(samples[at], t0, fs, np.add(tx_map, delays, out=p), chain_work)
                        for term in np.multiply(vals, phase[:b1 - b0], out=chain_work[2]):
                            acc += term
            for _, tx_maps, accs in sums:
                for n, (tx_map, acc) in enumerate(zip(tx_maps, accs)):
                    np.multiply(tx_map, omega, out=tx_theta)
                    acc[...] = np.multiply(acc, _carrier_phase(tx_theta, tx_phase, tx_work), out=tx_work[2])
                    if n:
                        accs[0] += acc

    bands = _band_count(nx * ny * len(records), nx, workers)
    bounds = np.linspace(0, nx, bands + 1).astype(int).tolist()
    pids = []
    try:
        for row0, row1 in zip(bounds[1:-1], bounds[2:]):
            if (pid := os.fork()) == 0:  # the child images its band and leaves
                try:
                    image_band(row0, row1)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        image_band(0, bounds[1])
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"back-projection bands exited with codes {codes}")
    return [ComplexImage(grid=grid, pixels=pixels[pair], provenance=pair) for pair in pairs]


def point_spread(scenario: Scenario, target: Vec2, grid: ImageGrid) -> ComplexImage:
    """Point-spread response of the full acquisition: the fused image of
    a unit probe target at ``target``.

    The scenario's own targets and noise are replaced by the single
    noiseless probe; synthesis at 4B, per-pair linear back-projection and
    coherent multistatic fusion then run end to end.
    """
    from .fusion import fuse_coherent

    probe = replace(
        scenario,
        targets=(PointTarget(position=target, reflectivity=1.0 + 0.0j),),
        noise_power=0.0,
    )
    records = synthesize(probe, suggest_window(probe, grid))
    return fuse_coherent(pair_images(records, probe, grid))


def target_box(scenario: Scenario) -> tuple[Vec2, Vec2, Vec2]:
    """The targets' bounding box: its low and high corners and its centre."""
    if not scenario.targets:
        raise ValueError("cannot size a default grid without targets")
    xs = [t.position.x for t in scenario.targets]
    ys = [t.position.y for t in scenario.targets]
    lo, hi = Vec2(min(xs), min(ys)), Vec2(max(xs), max(ys))
    return lo, hi, Vec2((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0)


def finest_pair_resolution(region: WavenumberRegion) -> tuple[float, float]:
    """The finest rho per axis that one pair of ``region`` resolves alone:
    ``predicted_resolution`` of each (tx, rx) terminal group's ends."""
    # 2*pi/dk falls as dk grows, so the widest pair extent gives the finest rho
    extents = region.pair_extents.max(axis=0).tolist()
    return tuple(TWO_PI / dk if dk > 0.0 else math.inf for dk in extents)


def default_spacing(rho_x: float, rho_y: float) -> float:
    """The default pixel pitch: the finer finite rho / 4."""
    if math.isinf(min(rho_x, rho_y)):
        raise ValueError("acquisition has no finite predicted resolution; pass an explicit grid")
    return min(rho_x, rho_y) / 4


def default_grid(scenario: Scenario, margin_cells: int = 24,
                 spacing: float | None = None) -> ImageGrid:
    """Square-pixel grid centered on the target bounding box padded by
    ``margin_cells`` pixels per side. The pixel ``spacing`` defaults to
    ``default_spacing`` of the resolution predicted at the box's centre."""
    lo, hi, ref = target_box(scenario)
    if spacing is None:
        est = predicted_resolution(coverage_region(scenario, ref))
        spacing = default_spacing(est.rho_x, est.rho_y)
    nx = int(math.ceil((hi.x - lo.x) / spacing)) + 2 * margin_cells + 1
    ny = int(math.ceil((hi.y - lo.y) / spacing)) + 2 * margin_cells + 1
    origin = Vec2(ref.x - spacing * (nx - 1) / 2.0, ref.y - spacing * (ny - 1) / 2.0)
    return ImageGrid(origin=origin, spacing=(spacing, spacing), size=(nx, ny))


def envelope_grid(region: WavenumberRegion, grid: ImageGrid) -> ImageGrid:
    """The grid to back-project the pair images of ``grid`` on: the coarse
    grid ``upsample_envelopes`` samples them from, or ``grid`` itself where
    that would not cost fewer pixel-channels than imaging on ``grid`` directly.

    Its pitch per axis is the finest single-pair rho of ``region``, the
    run's coverage from one coverage pass, over _ENVELOPE_CELLS_PER_RHO: a
    pair's image is its reference carrier times an envelope whose band is
    its wavenumber tile. It spans ``grid`` with two cells to spare below and
    at least two above on each axis, the reach of the interpolator's taps."""
    step = [rho / _ENVELOPE_CELLS_PER_RHO for rho in finest_pair_resolution(region)]
    if not all(math.isfinite(d) for d in step):
        return grid
    size = [math.floor((n - 1) * s / d) + 5 for n, s, d in zip(grid.size, grid.spacing, step)]
    channels, pairs = len(region.channels), len(region.pair_extents)
    pixels = grid.size[0] * grid.size[1]
    if size[0] * size[1] * channels + _UPSAMPLE_PIXCH * pairs * pixels >= pixels * channels:
        return grid
    origin = Vec2(grid.origin.x - 2 * step[0], grid.origin.y - 2 * step[1])
    return ImageGrid(origin=origin, spacing=tuple(step), size=tuple(size))


def _keys_taps(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys cubic convolution (a = _KEYS_A) at positions ``u`` given in
    samples of an axis of ``n`` samples: the index of each position's
    first of four taps and the taps' (4, len(u)) weights, which sum to one
    and reproduce quadratics exactly."""
    base = np.clip(np.floor(u), 1, n - 3)
    t = u - base
    s = 1.0 - t
    a = _KEYS_A
    weights = np.array([a * t * s * s, ((a + 2.0) * t - (a + 3.0)) * t * t + 1.0,
                        ((a + 2.0) * s - (a + 3.0)) * s * s + 1.0, a * t * t * s])
    return base.astype(np.intp) - 1, weights


def _keys_resample(values: np.ndarray, taps, out: np.ndarray) -> np.ndarray:
    """``values`` interpolated into ``out`` with the (first tap, weights)
    of ``_keys_taps`` along y, on the coarse rows, and then along x by
    gathering whole rows; each tap sum is elementwise, in ascending tap
    order."""
    (first_x, wx), (first_y, wy) = taps
    columns = values[:, first_y] * wy[0]
    for tap in (1, 2, 3):
        columns += values[:, first_y + tap] * wy[tap]
    term = np.empty_like(out)
    np.multiply(columns[first_x], wx[0][:, None], out=out)
    for tap in (1, 2, 3):
        out += np.multiply(np.take(columns, first_x + tap, axis=0, out=term), wx[tap][:, None], out=term)
    return out


def _reference_carriers(scenario: Scenario, grid: ImageGrid, pairs):
    """A function giving, for a pair (l, k), exp(j*omega*tau_ref) on
    ``grid`` into a reused buffer; tau_ref is the delay through the mean Tx
    element of terminal l and the mean Rx element of terminal k."""
    x, y = grid.x_coords[:, None], grid.y_coords[None, :]
    terms = scenario.terminals
    tx = {l: _delay_map(*terms[l].tx_elements.mean(axis=0), x, y) for l in {pair[0] for pair in pairs}}
    rx = {k: _delay_map(*terms[k].rx_elements.mean(axis=0), x, y) for k in {pair[1] for pair in pairs}}
    omega = 2.0 * math.pi * scenario.f0
    theta, out = np.empty(grid.size), np.empty(grid.size, dtype=complex)
    work = (np.empty(grid.size, dtype=np.intp), np.empty_like(out), np.empty_like(out))

    def carrier(l: int, k: int) -> np.ndarray:
        np.multiply(np.add(tx[l], rx[k], out=theta), omega, out=theta)
        return _carrier_phase(theta, out, work)

    return carrier


def upsample_envelopes(images: list[ComplexImage], scenario: Scenario,
                       grid: ImageGrid) -> list[ComplexImage]:
    """Resample pair images taken on ``envelope_grid(region, grid)`` onto
    ``grid``, passing images already on ``grid`` through. Per pair, the
    reference carrier is divided out on the coarse grid, the smooth envelope
    left is interpolated with separable four-tap Keys cubic weights, and the
    carrier is restored on ``grid``. Each tap sum is a fixed sequence of
    elementwise numpy ops, so the result does not depend on threading."""
    if not images or images[0].grid == grid:
        return images
    coarse, pairs = images[0].grid, [image.provenance for image in images]
    taps = [_keys_taps((fine - lo) / d, n) for fine, lo, d, n in zip(
        (grid.x_coords, grid.y_coords), (coarse.origin.x, coarse.origin.y), coarse.spacing, coarse.size)]
    coarse_carrier = _reference_carriers(scenario, coarse, pairs)
    fine_carrier = _reference_carriers(scenario, grid, pairs)
    stack = np.empty((len(images), *grid.size), dtype=complex)
    for image, pixels in zip(images, stack):
        envelope = image.pixels * np.conj(coarse_carrier(*image.provenance))
        _keys_resample(envelope, taps, pixels)
        pixels *= fine_carrier(*image.provenance)
    return [ComplexImage(grid=grid, pixels=pixels, provenance=pair) for pixels, pair in zip(stack, pairs)]


# --- exports ----------------------------------------------------------------

def export_image_csv(image: ComplexImage, path) -> None:
    """Write pixels as (x, y, re, im) rows, x-major."""
    grid = image.grid
    re_im = np.ascontiguousarray(image.pixels).view(float).reshape(*grid.size, 2)
    write_csv(path, "x_m,y_m,re,im",
              grid.x_coords[:, None, None], grid.y_coords[None, :, None], re_im)


def export_image_pgm(image: ComplexImage, path, dynamic_range_db: float) -> None:
    """8-bit PGM raster of 20*log10|I| relative to the image peak,
    clipped to the given positive dynamic range. A derived view only;
    numeric consumers should read the CSV export instead."""
    if not (math.isfinite(dynamic_range_db) and dynamic_range_db > 0):
        raise ValueError(f"dynamic range must be finite and positive, got {dynamic_range_db!r}")
    mag = image.magnitude
    peak = mag.max()
    if peak == 0.0:
        db = np.full(mag.shape, -dynamic_range_db)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mag / peak)
    scaled = np.clip((db + dynamic_range_db) / dynamic_range_db, 0.0, 1.0)
    byte = np.round(255.0 * scaled).astype(np.uint8)
    # PGM rows scan top-to-bottom: emit decreasing y, x left-to-right
    raster = byte.T[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{raster.shape[1]} {raster.shape[0]}\n255\n".encode())
        fh.write(raster.tobytes())
