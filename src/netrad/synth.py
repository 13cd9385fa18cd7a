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
once; a pair's delays form one (n_tx, n_rx) array per target and its
records one (n_tx, n_rx, samples) array, bit for bit the channel-by-
channel evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import SPEED_OF_LIGHT, ImageGrid, Scenario, Vec2, distance


@dataclass(frozen=True)
class SignalRecord:
    """Complex baseband time series of one measurement channel.

    ``channel`` is (tx terminal, rx terminal, tx element, rx element);
    ``t0`` the time of the first sample and ``fs`` the complex sampling
    rate, which must satisfy fs >= bandwidth.
    """

    channel: tuple[int, int, int, int]
    t0: float
    fs: float
    samples: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.fs

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self.samples) - 1) / self.fs


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


def _distances(scenario: Scenario, points) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per terminal, the (elements, points) distances of its Tx and of its
    Rx elements to ``points``, each computed once with ``scene.distance``."""
    def table(elements):
        rows = [[distance(el, p) for p in points] for el in elements]
        return np.array(rows).reshape(len(elements), len(points))

    return [(table(term.tx_elements), table(term.rx_elements)) for term in scenario.terminals]


def suggest_window(scenario: Scenario, grid: ImageGrid | None = None) -> tuple[float, float]:
    """Acquisition window covering, over all active channels, every target
    delay plus the pair's clock error (responses arrive that late) and,
    optionally, every grid pixel delay without it (back-projection never
    compensates the error), padded by 6/B, comfortably above the 4/B
    minimum the simulator enforces around target responses.

    A channel's pixel delays are bounded by the sums of its two elements'
    ``ImageGrid.reach``: below by their delays to the nearest point of the
    grid rectangle, above by their delays to its farthest corners. These
    are the bounds ``imaging.pair_images`` checks every record against."""
    margin = 6.0 / scenario.bandwidth
    dist = _distances(scenario, [t.position for t in scenario.targets])
    reach = None if grid is None else [
        (grid.reach(term.tx_elements), grid.reach(term.rx_elements)) for term in scenario.terminals]
    lo, hi = math.inf, -math.inf
    for l, k in scenario.pairing.active_pairs():
        taus = (dist[l][0][:, None] + dist[k][1][None]) / SPEED_OF_LIGHT + scenario.sync_errors[l, k]
        if reach is not None:  # each channel's near and far sums stand for its pixels
            bounds = reach[l][0][:, :, None] + reach[k][1][:, None, :]
            taus = np.concatenate((taus, np.moveaxis(bounds, 0, -1)), axis=-1)
        if taus.size:
            lo, hi = min(lo, float(taus.min())), max(hi, float(taus.max()))
    if not math.isfinite(lo):
        raise ValueError("cannot size a window: no active channels or no points")
    return (lo - margin, hi + margin)


def _channel_rng(seed: int, channel: tuple[int, int, int, int]) -> np.random.Generator:
    # Seed sequence hashes (seed, l, k, n, m): reproducible per channel and
    # independent across channels, so synthesis order does not matter.
    return np.random.default_rng([seed, *channel])


def synthesize(
    scenario: Scenario,
    window: tuple[float, float],
    fs: float | None = None,
) -> list[SignalRecord]:
    """Simulate the received signal of every active measurement channel.

    ``window`` is (t_min, t_max) in seconds and must cover each target
    delay with at least 4/B margin so no response is truncated. ``fs``
    defaults to 4*B. The scenario's association matrix is the pair
    selection: to synthesize fewer pairs, scope it with
    ``AssociationMatrix.from_pairs``. Records come out in (tx terminal,
    rx terminal, tx element, rx element) row-major order.
    """
    bw = scenario.bandwidth
    if bw <= 0:
        raise ValueError("bandwidth must be positive")
    if fs is None:
        fs = default_sample_rate(bw)
    if fs < bw:
        raise ValueError(f"sample rate {fs:g} Hz below complex Nyquist rate {bw:g} Hz")
    t_min, t_max = window
    if t_max <= t_min:
        raise ValueError("empty acquisition window")

    n_samp = int(round((t_max - t_min) * fs)) + 1
    if n_samp < 2:
        raise ValueError("window shorter than two samples")
    t = t_min + np.arange(n_samp) / fs
    margin = 4.0 / bw
    sigma2 = scenario.noise_power

    records: list[SignalRecord] = []
    dist = _distances(scenario, [target.position for target in scenario.targets])
    for l, k in scenario.pairing.active_pairs():
        taus = (dist[l][0][:, None] + dist[k][1][None]) / SPEED_OF_LIGHT + scenario.sync_errors[l, k]
        late = (taus - margin < t_min) | (taus + margin > t_max)
        if late.any():
            n, m, j = np.argwhere(late)[0].tolist()
            raise ValueError(
                f"window ({t_min:g}, {t_max:g}) s truncates the target at "
                f"delay {taus[n, m, j]:g} s on channel ({l},{k},{n},{m}); "
                f"need {margin:g} s margin"
            )
        acc = np.zeros((*taus.shape[:2], n_samp), dtype=complex)
        for j, target in enumerate(scenario.targets):
            # the shortest paths stand for all of the pair's channels
            if dist[l][0][:, j].min() <= 0 or dist[k][1][:, j].min() <= 0:
                raise ValueError("propagation paths must be positive")
            # lossless convention: geometrical energy losses are neglected, so
            # the scattering amplitude is the reflectivity
            beta = target.reflectivity
            phase = np.exp(-2j * math.pi * scenario.f0 * taus[..., j])
            # beta * phase rounded as a scalar product: numpy's array loop
            # may fuse the multiply-adds
            scaled = (beta.real * phase.real - beta.imag * phase.imag).astype(complex)
            scaled.imag = beta.real * phase.imag + beta.imag * phase.real
            acc += scaled[..., None] * np.sinc(bw * (t - taus[..., j, None]))
        for n, m in np.ndindex(*acc.shape[:2]):
            if sigma2 > 0.0:
                rng = _channel_rng(scenario.rng_seed, (l, k, n, m))
                noise = rng.standard_normal(n_samp) + 1j * rng.standard_normal(n_samp)
                acc[n, m] += math.sqrt(sigma2 / 2.0) * noise
            records.append(SignalRecord(channel=(l, k, n, m), t0=t_min, fs=fs, samples=acc[n, m]))
    return records


def export_record_csv(record: SignalRecord, path) -> None:
    """Raw-record dump: (t, re, im) rows, for debugging."""
    rows = np.column_stack((record.times, record.samples.real, record.samples.imag))
    with open(path, "w") as fh:
        fh.write("t_s,re,im\n")
        fh.write("%.9g,%.9g,%.9g\n" * len(rows) % tuple(rows.ravel().tolist()))
