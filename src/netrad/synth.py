"""Forward simulator: complex baseband received signals per channel.

Signals are generated directly in range-compressed form. For any
flat-spectrum pulse of bandwidth B the matched-filter output is the
normalized sinc, g_rc(t) = sinc(B*t), so each point target contributes

    beta * g_rc(t - tau - dt) * exp(-j*2*pi*f0*(tau + dt))

on a channel, where tau is the bistatic two-way delay, dt the residual
clock error between the two terminals involved and beta the scattering
amplitude. Simultaneous transmitters are assumed ideally orthogonal
(no cross-talk). Complex white Gaussian noise of variance
``noise_power`` is added per sample, with an independent, reproducible
stream per channel. Each element's distance to each target is computed
once and gathered into one (channels, targets) delay table
(``scene.element_rows``); each pair's rows of the run's one ``Records``
array are then written at once, bit for bit the channel-by-channel
evaluation, in ``scene.channel_table`` order. ``pixel_delay_bounds``
sizes windows and checks them in ``imaging.pair_images``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import SPEED_OF_LIGHT, ImageGrid, Scenario, Vec2, channel_table, distance, element_rows, pair_rows


@dataclass(frozen=True, eq=False)
class Records:
    """Complex baseband time series, one channel per row: row c of the (C, 4)
    int ``channels`` is the (tx terminal, rx terminal, tx element, rx element)
    of the (C, S) complex ``samples[c]``, sampled from ``t0`` at ``fs`` >= B;
    an int index gives one channel ((4,) and (S,)), a mask a subset."""

    channels: np.ndarray
    samples: np.ndarray
    t0: float
    fs: float

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, index) -> Records:
        return Records(self.channels[index], self.samples[index], self.t0, self.fs)

    @property
    def t_end(self) -> float:
        return self.t0 + (self.samples.shape[-1] - 1) / self.fs


def bistatic_delay(tx_el: Vec2, rx_el: Vec2, target: Vec2) -> float:
    """Two-way propagation delay: (|target - tx| + |rx - target|) / c."""
    return (distance(tx_el, target) + distance(target, rx_el)) / SPEED_OF_LIGHT


def default_sample_rate(bandwidth: float) -> float:
    """Complex sampling rate used when none is given: 4B. The
    back-projector interpolates records linearly, whose error on a
    target's response beta * sinc(B*t) is at most
    pi^2 * (B/fs)^2 / 24 * |beta|: 2.6% at 4B, against 2.55% measured for a
    peak half-way between samples."""
    return 4.0 * bandwidth


def _target_delays(scenario: Scenario, channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (C, targets) delays of each channel via each target, its pair's
    clock error included, and where either of the two paths is zero; one
    ``math.hypot`` per (element, target), as in ``scene.distance``, gathered
    by ``element_rows``."""
    xy = [(t.position.x, t.position.y) for t in scenario.targets]
    tx, rx, n, m = element_rows(scenario, channels)
    d_tx, d_rx = (np.array([math.hypot(x - ex, y - ey) for ex, ey in elements.tolist() for x, y in xy])
                  .reshape(len(elements), len(xy)) for elements in (tx, rx))
    sync = scenario.sync_errors[channels[:, 0], channels[:, 1]]
    return (d_tx[n] + d_rx[m]) / SPEED_OF_LIGHT + sync[:, None], (d_tx[n] <= 0) | (d_rx[m] <= 0)


def pixel_delay_bounds(scenario: Scenario, grid: ImageGrid, pairs) -> np.ndarray:
    """The (2, C) near and far sums of the ``ImageGrid.reach`` of each
    channel's Tx and Rx element, in ``channel_table(scenario, pairs)`` order,
    reach taken once per element: by monotone rounding, bounds of the
    channel's pixel delays."""
    tx, rx, n, m = element_rows(scenario, channel_table(scenario, pairs))
    return grid.reach(tx)[:, n] + grid.reach(rx)[:, m]


def suggest_window(scenario: Scenario, grid: ImageGrid | None = None) -> tuple[float, float]:
    """Acquisition window covering, over all active channels, every target
    delay plus the pair's clock error (responses arrive that late) and,
    optionally, every grid pixel delay without it (back-projection never
    compensates the error), padded by 6/B, comfortably above the 4/B
    minimum the simulator enforces around target responses. A channel's
    pixel delays stand as its ``pixel_delay_bounds``, the bounds
    ``imaging.pair_images`` checks every record against."""
    margin = 6.0 / scenario.bandwidth
    pairs = scenario.pairing.active_pairs()
    taus = _target_delays(scenario, channel_table(scenario, pairs))[0].ravel()
    if grid is not None:
        taus = np.concatenate((taus, pixel_delay_bounds(scenario, grid, pairs).ravel()))
    if not taus.size:
        raise ValueError("cannot size a window: no active channels or no points")
    return (float(taus.min()) - margin, float(taus.max()) + margin)


def _channel_rng(seed: int, channel: list[int]) -> np.random.Generator:
    # Seed sequence hashes (seed, l, k, n, m): reproducible per channel and
    # independent across channels, so synthesis order does not matter.
    return np.random.default_rng([seed, *channel])


def synthesize(
    scenario: Scenario,
    window: tuple[float, float],
    fs: float | None = None,
) -> Records:
    """Simulate the received signal of every active measurement channel.

    ``window`` is (t_min, t_max) in seconds and must cover each target
    delay with at least 4/B margin so no response is truncated. ``fs``
    defaults to 4*B. The scenario's association matrix is the pair
    selection: to synthesize fewer pairs, scope it with
    ``AssociationMatrix.from_pairs``. Rows come out in (tx terminal, rx
    terminal, tx element, rx element) order, the active pairs' ``scene.channel_table``.
    """
    bw = scenario.bandwidth
    if bw <= 0:
        raise ValueError("bandwidth must be positive")
    if fs is None:
        fs = default_sample_rate(bw)
    if not (math.isfinite(fs) and fs >= bw):
        raise ValueError(f"sample rate fs = {fs:g} Hz must be finite and at least "
                         f"the complex Nyquist rate {bw:g} Hz")
    t_min, t_max = window
    if not (math.isfinite(t_min) and math.isfinite(t_max) and t_max > t_min):
        raise ValueError(f"acquisition window ({t_min:g}, {t_max:g}) s must be finite and not empty")

    n_samp = int(round((t_max - t_min) * fs)) + 1
    if n_samp < 2:
        raise ValueError("window shorter than two samples")
    t = t_min + np.arange(n_samp) / fs
    margin = 4.0 / bw
    sigma2 = scenario.noise_power

    channels = channel_table(scenario, scenario.pairing.active_pairs())
    taus, touching = _target_delays(scenario, channels)
    if len(late := np.argwhere((taus - margin < t_min) | (taus + margin > t_max))):  # first in row order
        c, j = late[0].tolist()
        raise ValueError(f"window ({t_min:g}, {t_max:g}) s truncates the target at delay {taus[c, j]:g} s on "
                         "channel ({},{},{},{}); ".format(*channels[c].tolist()) + f"need {margin:g} s margin")
    if touching.any():
        raise ValueError("propagation paths must be positive")
    samples = np.zeros((len(channels), n_samp), dtype=complex)
    starts = pair_rows(channels)[1].tolist()
    for r0, r1 in zip(starts, [*starts[1:], len(channels)]):
        acc, tau = samples[r0:r1], taus[r0:r1]  # one pair's rows
        for j, target in enumerate(scenario.targets):
            # lossless convention: geometrical energy losses are neglected, so
            # the scattering amplitude is the reflectivity
            beta = target.reflectivity
            phase = np.exp(-2j * math.pi * scenario.f0 * tau[:, j])
            # beta * phase rounded as a scalar product: numpy's array loop
            # may fuse the multiply-adds
            scaled = (beta.real * phase.real - beta.imag * phase.imag).astype(complex)
            scaled.imag = beta.real * phase.imag + beta.imag * phase.real
            acc += scaled[:, None] * np.sinc(bw * (t - tau[:, j, None]))
    if sigma2 > 0.0:
        for row, channel in zip(samples, channels.tolist()):
            rng = _channel_rng(scenario.rng_seed, channel)
            row += math.sqrt(sigma2 / 2.0) * (rng.standard_normal(n_samp) + 1j * rng.standard_normal(n_samp))
    return Records(channels=channels, samples=samples, t0=t_min, fs=fs)


def export_record_csv(record: Records, path) -> None:
    """Raw-record dump of one channel, ``records[c]``: (t, re, im) rows, for debugging."""
    times = record.t0 + np.arange(len(record.samples)) / record.fs
    rows = np.column_stack((times, record.samples.real, record.samples.imag))
    with open(path, "w") as fh:
        fh.write("t_s,re,im\n")
        fh.write("%.9g,%.9g,%.9g\n" * len(rows) % tuple(rows.ravel().tolist()))
