"""Image formation by time-domain back-projection.

For each pixel x and each measurement channel, the record is interpolated
at the pixel's bistatic delay tau(x), rotated by exp(+j*2*pi*f0*tau(x))
to undo the carrier phase, and accumulated:

    I(x) = sum_n sum_m y_nm(t = tau_nm(x)) * exp(j*2*pi*f0*tau_nm(x))

At the true position of a noiseless target all channel contributions add
in phase. The formulation is valid for any geometry (near field or far
field, monostatic or bistatic); the spectral ramp filter is omitted,
which is the usual approximation when f0 >> B.

The carrier phase factors into a Tx and an Rx part, so one delay map
per Tx element and one delay map and phase per Rx element serve every
pair using the element. Each (pair, Tx element) sums its channels without
the Tx phase, by ascending Rx element and then record order; Tx phases
are applied last, by ascending Tx element. The order is fixed per pixel:
a pair's image is bit-identical for any worker count and co-imaged pairs.

A delay map is r/c with r the square root of the broadcast squared x and
y offsets, so a channel's delay tau(x) is one add of a Tx and an Rx map.
Phases exp(j*theta) come from a table of exp(2*pi*j*k/T) times a short
Taylor series in the residual angle, within a few units of the last
place of theta of the exact value. Each channel's window is checked
against the sum of its maps' minima and maxima; rounding is monotone, so
that bound passes no pixel the exact per-pixel check would reject, and
the exact check runs, with its message, only when the bound fails.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .scene import SPEED_OF_LIGHT, ImageGrid, PointTarget, Scenario, Vec2
from .synth import SignalRecord, suggest_window, synthesize
from .wavenumber import coverage_region, predicted_resolution

_SINC_TAPS = 16


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


def _interp_linear(rec: SignalRecord, pos: np.ndarray, work) -> np.ndarray:
    """Two-point interpolation at fractional sample positions ``pos``
    (overwritten), into the reused buffers ``work``."""
    index, vals, step = work
    # pos >= 0 inside the record window, so truncation is the floor;
    # mode="clip" keeps the last sample's index in range
    np.copyto(index, pos, casting="unsafe")
    np.subtract(pos, index, out=pos)
    np.multiply(np.take(np.diff(rec.samples), index, out=step, mode="clip"), pos, out=vals)
    return np.add(vals, np.take(rec.samples, index, out=step, mode="clip"), out=vals)


def _interp_sinc(rec: SignalRecord, pos: np.ndarray, work) -> np.ndarray:
    """Windowed-sinc interpolation at ``pos``; ``work`` is not needed."""
    n = len(rec.samples)
    base = np.clip(np.round(pos.ravel()).astype(int) - _SINC_TAPS // 2, 0, n - _SINC_TAPS)
    idx = base[:, None] + np.arange(_SINC_TAPS)
    weights = np.sinc(pos.reshape(-1, 1) - idx)
    return (rec.samples[idx] * weights).sum(axis=1).reshape(pos.shape)


_INTERPOLATORS = {"linear": _interp_linear, "sinc": _interp_sinc}


def _delay_map(el: Vec2, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Delay |p - el| / c from element ``el`` to each pixel p = (x, y)."""
    r2 = np.add(np.square(x - el.x), np.square(y - el.y), out=out)
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
    index, rot, table, turn = work
    np.rint(np.multiply(theta, 1.0 / _PHASE_STEP, out=turn), out=turn)
    np.copyto(index, turn, casting="unsafe")
    np.bitwise_and(index, _PHASE_STEPS - 1, out=index)
    d = np.subtract(theta, np.multiply(turn, _PHASE_STEP, out=turn), out=theta)
    d2 = np.multiply(d, d, out=turn)
    # cos d = 1 - d^2/2 + d^4/24 and sin d = d - d^3/6
    re = np.multiply(d2, 1.0 / 24.0, out=rot.real)
    np.add(np.multiply(np.subtract(re, 0.5, out=re), d2, out=re), 1.0, out=re)
    np.multiply(np.subtract(1.0, np.multiply(d2, 1.0 / 6.0, out=d2), out=d2), d, out=rot.imag)
    return np.multiply(np.take(_PHASE_TABLE, index, out=table, mode="clip"), rot, out=out)


def _check_window(rec: SignalRecord, tau: np.ndarray, row0: int) -> None:
    lo, hi = float(tau.min()), float(tau.max())
    if lo < rec.t0 or hi > rec.t_end:
        flat = int(np.argmin(tau) if lo < rec.t0 else np.argmax(tau))
        i, j = np.unravel_index(flat, tau.shape)
        bad = lo if lo < rec.t0 else hi
        raise ValueError(
            f"pixel ({int(i) + row0},{int(j)}) delay {bad:g} s outside record window "
            f"[{rec.t0:g}, {rec.t_end:g}] s of channel {rec.channel}"
        )


def backproject(
    records: list[SignalRecord],
    scenario: Scenario,
    grid: ImageGrid,
    workers: int = 1,
    interp: str = "linear",
) -> ComplexImage:
    """Form the complex image of the one Tx-Rx pair of ``records``; see ``pair_images``."""
    if not records:
        raise ValueError("no records to back-project")
    pairs = sorted({rec.channel[:2] for rec in records})
    if len(pairs) > 1:
        raise ValueError(f"records mix pairs {pairs}; back-project one pair at a time")
    return pair_images(records, scenario, grid, workers=workers, interp=interp)[0]


def pair_images(
    records: list[SignalRecord],
    scenario: Scenario,
    grid: ImageGrid,
    workers: int = 1,
    interp: str = "linear",
) -> list[ComplexImage]:
    """Back-project each Tx-Rx pair present in ``records`` separately,
    preserving first-appearance pair order.

    Every pair must be active and every pixel's bistatic delay must fall
    inside each record's time window. Linear interpolation is the
    default; ``interp="sinc"`` selects a windowed sinc kernel for higher
    amplitude fidelity at off-sample delays. ``workers`` threads split
    the receive terminals, and the pixel rows when there are fewer
    terminals than workers; the result does not depend on their number.
    """
    try:
        interpolate = _INTERPOLATORS[interp]
    except KeyError:
        raise ValueError(f"unknown interpolation {interp!r}; use 'linear' or 'sinc'") from None
    pairs = list(dict.fromkeys(rec.channel[:2] for rec in records))
    for pair in pairs:
        if not scenario.pairing.is_active(*pair):
            raise ValueError(f"pair {pair} is not active in the association matrix")

    x, y = grid.x_coords[:, None], grid.y_coords[None, :]
    omega = 2.0 * math.pi * scenario.f0
    tx_delay: dict[tuple[int, int], tuple[np.ndarray, float, float]] = {}
    by_rx: dict[int, dict[int, list[SignalRecord]]] = {}
    for rec in records:
        l, k, n, m = rec.channel
        if (l, n) not in tx_delay:
            delay = _delay_map(scenario.terminals[l].tx_elements[n], x, y)
            tx_delay[l, n] = delay, float(delay.min()), float(delay.max())
        by_rx.setdefault(k, {}).setdefault(m, []).append(rec)
    pixels = {pair: np.zeros(grid.size, dtype=complex) for pair in pairs}

    def image_rows(k: int, row0: int, row1: int) -> None:
        rows, shape = slice(row0, row1), (row1 - row0, grid.size[1])
        # one sum per (Tx terminal, Tx element) without the Tx phase; the
        # lowest Tx element of each pair sums in the pair's own pixels
        keys = sorted({(r.channel[0], r.channel[2]) for rs in by_rx[k].values() for r in rs})
        lowest = {l: n for l, n in reversed(keys)}
        sums = {
            (l, n): pixels[l, k][rows] if lowest[l] == n else np.zeros(shape, dtype=complex)
            for l, n in keys
        }
        rx_delay, pos = np.empty(shape), np.empty(shape)
        # complex products never write over an operand: numpy rounds an
        # in-place product of one element differently from a longer one
        phase, term = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        work = (np.empty(shape, dtype=np.intp), np.empty(shape, dtype=complex),
                np.empty(shape, dtype=complex))
        phase_work = work + (np.empty(shape),)
        for m in sorted(by_rx[k]):
            _delay_map(scenario.terminals[k].rx_elements[m], x[rows], y, out=rx_delay)
            rx_lo, rx_hi = float(rx_delay.min()), float(rx_delay.max())
            _carrier_phase(np.multiply(rx_delay, omega, out=pos), phase, phase_work)
            for rec in by_rx[k][m]:
                l, _, n, _ = rec.channel
                delay, tx_lo, tx_hi = tx_delay[l, n]
                np.add(delay[rows], rx_delay, out=pos)
                # rounding is monotone, so the bound never passes a pixel
                # the exact check would reject
                if tx_lo + rx_lo < rec.t0 or tx_hi + rx_hi > rec.t_end:
                    _check_window(rec, pos, row0)
                np.multiply(np.subtract(pos, rec.t0, out=pos), rec.fs, out=pos)
                sums[l, n] += np.multiply(interpolate(rec, pos, work), phase, out=term)
        for l, n in keys:
            np.multiply(tx_delay[l, n][0][rows], omega, out=pos)
            np.multiply(sums[l, n], _carrier_phase(pos, phase, phase_work), out=term)
            if lowest[l] == n:
                sums[l, n][...] = term
            else:
                pixels[l, k][rows] += term

    nx = grid.size[0]
    blocks = max(1, min(nx, math.ceil(workers / max(len(by_rx), 1))))
    bounds = np.linspace(0, nx, blocks + 1).astype(int)
    tasks = [(k, int(r0), int(r1)) for k in by_rx for r0, r1 in zip(bounds[:-1], bounds[1:])]
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda task: image_rows(*task), tasks))
    else:
        for task in tasks:
            image_rows(*task)
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


def default_grid(scenario: Scenario, margin_cells: int = 24) -> ImageGrid:
    """Grid sized from the predicted resolution: spacing is the finest
    finite predicted rho / 4, centered on the target bounding box padded
    by ``margin_cells`` pixels per side."""
    if not scenario.targets:
        raise ValueError("cannot size a default grid without targets")
    xs = [t.position.x for t in scenario.targets]
    ys = [t.position.y for t in scenario.targets]
    lo, hi = Vec2(min(xs), min(ys)), Vec2(max(xs), max(ys))
    ref = Vec2((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0)
    est = predicted_resolution(coverage_region(scenario, ref))
    rho = min(est.rho_x, est.rho_y)
    if math.isinf(rho):
        raise ValueError("acquisition has no finite predicted resolution; pass an explicit grid")
    s = rho / 4
    nx = int(math.ceil((hi.x - lo.x) / s)) + 2 * margin_cells + 1
    ny = int(math.ceil((hi.y - lo.y) / s)) + 2 * margin_cells + 1
    origin = Vec2(ref.x - s * (nx - 1) / 2.0, ref.y - s * (ny - 1) / 2.0)
    return ImageGrid(origin=origin, spacing=(s, s), size=(nx, ny))


# --- exports ----------------------------------------------------------------

def export_image_csv(image: ComplexImage, path) -> None:
    """Write pixels as (x, y, re, im) rows, x-major."""
    ys = image.grid.y_coords
    with open(path, "w") as fh:
        fh.write("x_m,y_m,re,im\n")
        for xv, column in zip(image.grid.x_coords.tolist(), image.pixels):
            rows = np.column_stack((ys, column.real, column.imag))
            fh.write(f"{xv:.9g},%.9g,%.9g,%.9g\n" * len(rows) % tuple(rows.ravel().tolist()))


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
