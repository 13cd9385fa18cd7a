"""Shared geometry builders and independent oracles for the test suite."""

from __future__ import annotations

import cmath
import math

import numpy as np

from netrad.scene import (
    SPEED_OF_LIGHT,
    AssociationMatrix,
    ImageGrid,
    PointTarget,
    Scenario,
    Terminal,
    Vec2,
    distance,
)
from netrad.synth import SignalRecord, bistatic_delay, default_sample_rate

F0 = 28e9
BW = 500e6
WAVELENGTH = SPEED_OF_LIGHT / F0
TARGET = Vec2(0.0, 20.0)


def ula(center: Vec2, count: int, spacing: float, direction: Vec2 = Vec2(1.0, 0.0)):
    """Uniform linear array of ``count`` elements centered on ``center``."""
    half = (count - 1) / 2.0
    return tuple(
        Vec2(center.x + (i - half) * spacing * direction.x,
             center.y + (i - half) * spacing * direction.y)
        for i in range(count)
    )


def point_terminal(term_id: int, pos: Vec2) -> Terminal:
    """Single colocated tx/rx element."""
    return Terminal(term_id, pos, (pos,), (pos,))


def one_pair_scenario(tx: Vec2, rx: Vec2, bandwidth: float = BW, f0: float = F0) -> Scenario:
    """One terminal with one tx and one rx element: its coverage region
    has the single row of channel (0, 0, 0, 0)."""
    return Scenario(terminals=(Terminal(0, tx, (tx,), (rx,)),), targets=(PointTarget(TARGET),),
                    f0=f0, bandwidth=bandwidth)


def mimo_terminal(term_id: int, center: Vec2, m_rx: int) -> Terminal:
    """One tx element at the phase center plus an m_rx-element half-wave
    receive ULA along x (the per-terminal layout of the reference lane
    scenario)."""
    return Terminal(term_id, center, (center,), ula(center, m_rx, WAVELENGTH / 2))


def lane_scenario(
    n_terminals: int = 5,
    m_rx: int = 134,
    bandwidth: float = BW,
    pairing: AssociationMatrix | None = None,
    noise_power: float = 0.0,
    seed: int = 0,
    spacing: float = 0.7,
) -> Scenario:
    """Reference lane: terminals along x spaced 0.7 m, target at (0, 20).

    m_rx = 134 makes the receive aperture 0.713 m, which yields 0.30 m
    cross-range resolution at 20 m from a single terminal (matching the
    0.30 m range resolution of the 500 MHz band).
    """
    offset = (n_terminals - 1) / 2.0
    terms = tuple(
        mimo_terminal(i, Vec2((i - offset) * spacing, 0.0), m_rx)
        for i in range(n_terminals)
    )
    return Scenario(
        terminals=terms,
        targets=(PointTarget(TARGET),),
        f0=F0,
        bandwidth=bandwidth,
        noise_power=noise_power,
        pairing=pairing,
        rng_seed=seed,
    )


def monostatic_arc_scenario(
    n_positions: int,
    angular_extent: float,
    stand_off: float = 20.0,
    center_angle: float = math.pi / 2,
    bandwidth: float = BW,
) -> Scenario:
    """Single-element monostatic positions on an arc around the target,
    spanning ``angular_extent`` radians of observation angle."""
    angles = np.linspace(
        center_angle - angular_extent / 2, center_angle + angular_extent / 2, n_positions
    )
    terms = tuple(
        point_terminal(
            i,
            Vec2(
                TARGET.x - stand_off * math.cos(a),
                TARGET.y - stand_off * math.sin(a),
            ),
        )
        for i, a in enumerate(angles)
    )
    return Scenario(
        terminals=terms,
        targets=(PointTarget(TARGET),),
        f0=F0,
        bandwidth=bandwidth,
        pairing=AssociationMatrix.identity(n_positions),
    )


def brute_force_backprojection(records, scenario: Scenario, grid: ImageGrid) -> np.ndarray:
    """Direct scalar evaluation of the discrete back-projection sum.

    Deliberately independent of the library implementation: per-pixel
    python loops, math/cmath scalar arithmetic and an explicit two-point
    interpolation formula.
    """
    nx, ny = grid.size
    out = np.zeros((nx, ny), dtype=complex)
    for i in range(nx):
        x = grid.origin.x + i * grid.spacing[0]
        for j in range(ny):
            y = grid.origin.y + j * grid.spacing[1]
            acc = 0.0 + 0.0j
            for rec in records:
                l, k, n, m = rec.channel
                tx = scenario.terminals[l].tx_elements[n]
                rx = scenario.terminals[k].rx_elements[m]
                tau = (
                    math.hypot(x - tx.x, y - tx.y) + math.hypot(rx.x - x, rx.y - y)
                ) / SPEED_OF_LIGHT
                pos = (tau - rec.t0) * rec.fs
                i0 = min(max(int(math.floor(pos)), 0), len(rec.samples) - 2)
                frac = pos - i0
                val = rec.samples[i0] * (1.0 - frac) + rec.samples[i0 + 1] * frac
                acc += val * cmath.exp(2j * math.pi * scenario.f0 * tau)
            out[i, j] = acc
    return out


def reference_window(scenario: Scenario, grid: ImageGrid | None = None) -> tuple[float, float]:
    """``synth.suggest_window`` evaluated channel by channel with python
    scalars: the reference its array form must equal exactly. A channel's
    pixel bound is the sum of its two elements' reach, each taken with the
    delay map's ops in their order (square, add, sqrt, divide by c)."""
    margin = 6.0 / scenario.bandwidth

    def reach(el):
        """The element's delays to the grid rectangle's nearest point and farthest corner."""
        (x0, x1), (y0, y1) = grid.x_coords[[0, -1]].tolist(), grid.y_coords[[0, -1]].tolist()

        def sq(d):
            return d * d

        near = sq(min(max(el.x, x0), x1) - el.x) + sq(min(max(el.y, y0), y1) - el.y)
        far = max(sq(x0 - el.x), sq(x1 - el.x)) + max(sq(y0 - el.y), sq(y1 - el.y))
        return math.sqrt(near) / SPEED_OF_LIGHT, math.sqrt(far) / SPEED_OF_LIGHT

    lo, hi = math.inf, -math.inf
    for l, k in scenario.pairing.active_pairs():
        for tx_el in scenario.terminals[l].tx_elements:
            for rx_el in scenario.terminals[k].rx_elements:
                dt_sync = scenario.sync_errors[l, k]
                taus = [bistatic_delay(tx_el, rx_el, t.position) + dt_sync for t in scenario.targets]
                if grid is not None:  # the nearest and farthest pixel bounds
                    (tx_near, tx_far), (rx_near, rx_far) = reach(tx_el), reach(rx_el)
                    taus += [tx_near + rx_near, tx_far + rx_far]
                lo, hi = min([lo, *taus]), max([hi, *taus])
    if not math.isfinite(lo):
        raise ValueError("cannot size a window: no active channels or no points")
    return (lo - margin, hi + margin)


def reference_synthesize(scenario: Scenario, window, fs=None) -> list[SignalRecord]:
    """``synth.synthesize`` evaluated channel by channel and target by
    target with python scalars: the reference its array form must equal
    bit for bit, truncation error included."""
    bw = scenario.bandwidth
    fs = default_sample_rate(bw) if fs is None else fs
    t_min, t_max = window
    n_samp = int(round((t_max - t_min) * fs)) + 1
    t = t_min + np.arange(n_samp) / fs
    margin = 4.0 / bw
    records = []
    for l, k in scenario.pairing.active_pairs():
        dt_sync = scenario.sync_errors[l, k]
        for n, tx_el in enumerate(scenario.terminals[l].tx_elements):
            for m, rx_el in enumerate(scenario.terminals[k].rx_elements):
                acc = np.zeros(n_samp, dtype=complex)
                for target in scenario.targets:
                    d_tx = distance(tx_el, target.position)
                    d_rx = distance(target.position, rx_el)
                    tau = (d_tx + d_rx) / SPEED_OF_LIGHT + dt_sync
                    if tau - margin < t_min or tau + margin > t_max:
                        raise ValueError(
                            f"window ({t_min:g}, {t_max:g}) s truncates the target at "
                            f"delay {tau:g} s on channel ({l},{k},{n},{m}); "
                            f"need {margin:g} s margin"
                        )
                    beta = target.reflectivity
                    phase = np.exp(-2j * math.pi * scenario.f0 * tau)
                    acc += beta * phase * np.sinc(bw * (t - tau))
                if scenario.noise_power > 0.0:
                    rng = np.random.default_rng([scenario.rng_seed, l, k, n, m])
                    noise = rng.standard_normal(n_samp) + 1j * rng.standard_normal(n_samp)
                    acc += math.sqrt(scenario.noise_power / 2.0) * noise
                records.append(SignalRecord(channel=(l, k, n, m), t0=t_min, fs=fs, samples=acc))
    return records


def column_grid(x: float, y_lo: float, y_hi: float, dy: float) -> ImageGrid:
    """Single-column grid for 1D range cuts at fixed x."""
    ny = int(round((y_hi - y_lo) / dy)) + 1
    return ImageGrid(Vec2(x, y_lo), (1.0, dy), (1, ny))
