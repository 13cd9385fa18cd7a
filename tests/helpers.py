"""Shared geometry builders and independent oracles for the test suite."""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

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
from netrad.orchestrate import OrchestrationPlan
from netrad.synth import Records, bistatic_delay, default_sample_rate
from netrad.wavenumber import coverage_region, polygon_area, predicted_resolution

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
    # one-channel records with their Tx and Rx element rows, indexed once for every pixel
    channels = []
    for rec in records:
        l, k, n, m = rec.channels.tolist()
        channels.append((rec, scenario.terminals[l].tx_elements[n].tolist(),
                         scenario.terminals[k].rx_elements[m].tolist()))
    for i in range(nx):
        x = grid.origin.x + i * grid.spacing[0]
        for j in range(ny):
            y = grid.origin.y + j * grid.spacing[1]
            acc = 0.0 + 0.0j
            for rec, (tx_x, tx_y), (rx_x, rx_y) in channels:
                tau = (
                    math.hypot(x - tx_x, y - tx_y) + math.hypot(rx_x - x, rx_y - y)
                ) / SPEED_OF_LIGHT
                pos = (tau - rec.t0) * rec.fs
                i0 = min(max(int(math.floor(pos)), 0), len(rec.samples) - 2)
                frac = pos - i0
                val = rec.samples[i0] * (1.0 - frac) + rec.samples[i0 + 1] * frac
                acc += val * cmath.exp(2j * math.pi * scenario.f0 * tau)
            out[i, j] = acc
    return out


def vec2s(elements) -> list[Vec2]:
    """The rows of an (n, 2) element array as ``Vec2``s."""
    return [Vec2(*e) for e in elements.tolist()]


def reference_reach(grid: ImageGrid, el: Vec2) -> tuple[float, float]:
    """``ImageGrid.reach`` of one point with python scalars: its delays to
    the grid rectangle's nearest point and farthest corner, each taken with
    the delay map's ops in their order (square, add, sqrt, divide by c)."""
    (x0, x1), (y0, y1) = grid.x_coords[[0, -1]].tolist(), grid.y_coords[[0, -1]].tolist()

    def sq(d):
        return d * d

    near = sq(min(max(el.x, x0), x1) - el.x) + sq(min(max(el.y, y0), y1) - el.y)
    far = max(sq(x0 - el.x), sq(x1 - el.x)) + max(sq(y0 - el.y), sq(y1 - el.y))
    return math.sqrt(near) / SPEED_OF_LIGHT, math.sqrt(far) / SPEED_OF_LIGHT


def reference_pixel_delay_bounds(scenario: Scenario, grid: ImageGrid, pairs) -> list[list[float]]:
    """``synth.pixel_delay_bounds`` channel by channel with python scalars:
    each channel's near and far sums of its two elements' reach."""
    sums = []
    for l, k in pairs:
        for tx_el in vec2s(scenario.terminals[l].tx_elements):
            for rx_el in vec2s(scenario.terminals[k].rx_elements):
                (tx_near, tx_far), (rx_near, rx_far) = reference_reach(grid, tx_el), reference_reach(grid, rx_el)
                sums.append((tx_near + rx_near, tx_far + rx_far))
    return [[near for near, _ in sums], [far for _, far in sums]]


def reference_window(scenario: Scenario, grid: ImageGrid | None = None) -> tuple[float, float]:
    """``synth.suggest_window`` evaluated channel by channel with python
    scalars: the reference its array form must equal exactly. A channel's
    pixel bounds are ``reference_pixel_delay_bounds``."""
    margin = 6.0 / scenario.bandwidth
    lo, hi = math.inf, -math.inf
    pairs = scenario.pairing.active_pairs()
    for l, k in pairs:
        for tx_el in vec2s(scenario.terminals[l].tx_elements):
            for rx_el in vec2s(scenario.terminals[k].rx_elements):
                dt_sync = scenario.sync_errors[l, k]
                taus = [bistatic_delay(tx_el, rx_el, t.position) + dt_sync for t in scenario.targets]
                lo, hi = min([lo, *taus]), max([hi, *taus])
    if grid is not None:  # the nearest and farthest pixel bounds
        bounds = [d for row in reference_pixel_delay_bounds(scenario, grid, pairs) for d in row]
        lo, hi = min([lo, *bounds]), max([hi, *bounds])
    if not math.isfinite(lo):
        raise ValueError("cannot size a window: no active channels or no points")
    return (lo - margin, hi + margin)


def reference_synthesize(scenario: Scenario, window, fs=None) -> Records:
    """``synth.synthesize`` evaluated channel by channel and target by
    target with python scalars: the reference its array form must equal
    bit for bit, truncation error included. Its rows are stacked at the
    end, in the order they are evaluated."""
    bw = scenario.bandwidth
    fs = default_sample_rate(bw) if fs is None else fs
    t_min, t_max = window
    n_samp = int(round((t_max - t_min) * fs)) + 1
    t = t_min + np.arange(n_samp) / fs
    margin = 4.0 / bw
    channels, rows = [], []
    for l, k in scenario.pairing.active_pairs():
        dt_sync = scenario.sync_errors[l, k]
        for n, tx_el in enumerate(vec2s(scenario.terminals[l].tx_elements)):
            for m, rx_el in enumerate(vec2s(scenario.terminals[k].rx_elements)):
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
                channels.append((l, k, n, m))
                rows.append(acc)
    return Records(channels=np.array(channels, dtype=int).reshape(-1, 4),
                   samples=np.array(rows, dtype=complex).reshape(-1, n_samp), t0=t_min, fs=fs)


def column_grid(x: float, y_lo: float, y_hi: float, dy: float) -> ImageGrid:
    """Single-column grid for 1D range cuts at fixed x."""
    ny = int(round((y_hi - y_lo) / dy)) + 1
    return ImageGrid(Vec2(x, y_lo), (1.0, dy), (1, ny))


def reference_plan(scenario: Scenario, target: Vec2, n_active: int, objective: str) -> OrchestrationPlan:
    """``orchestrate.plan`` by one ``coverage_region`` pass per candidate
    set: the scenario with its pairing restricted to the selected
    terminals plus the candidate. The reference its one-region form must
    equal."""
    n = scenario.n_terminals
    selected, remaining = [], list(range(n))
    for _ in range(n_active):
        best_id, best_val = None, -math.inf
        for cand in remaining:
            trial = selected + [cand]
            pairing = AssociationMatrix.from_pairs(n, [
                (l, k) for l, k in scenario.pairing.active_pairs() if l in trial and k in trial])
            if not pairing.active_pairs():
                continue
            est = predicted_resolution(coverage_region(replace(scenario, pairing=pairing), target))
            if objective == "extent-x":
                val = est.dk_x
            elif objective == "extent-y":
                val = est.dk_y
            else:
                val = polygon_area(est.hull)
            if val > best_val * (1.0 + 1e-9):  # ties within rounding keep the lowest id
                best_id, best_val, best = cand, val, (pairing, est)
        if best_id is None:
            raise ValueError("infeasible plan: no candidate yields an active pair")
        selected.append(best_id)
        remaining.remove(best_id)
    selected.sort()
    pairing, est = best
    angles = [math.atan2(target.y - p.y, target.x - p.x)
              for p in (scenario.terminals[i].phase_center for i in selected)]
    order = sorted(range(len(selected)), key=lambda i: -math.sin(angles[i]))
    return OrchestrationPlan(angles=tuple(angles[i] for i in order),
                             positions=tuple(scenario.terminals[selected[i]].phase_center for i in order),
                             pairing=pairing, predicted=est)
