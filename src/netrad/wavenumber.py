"""Wavenumber-domain (spectral support) analysis of sensing acquisitions.

A single monochromatic Tx-Rx measurement excites exactly one spatial
frequency of the scene reflectivity: the composite wavevector
k* = k_Tx - k_Rx. Sweeping frequency turns the point into a radial
segment; sweeping element positions sweeps the segment in angle. The
extent of the union of all excited wavenumbers sets the achievable image
resolution (rho = 2*pi / extent per axis), which is what this module
predicts without running any simulation.

Angle convention: a wavevector at angle psi (measured from the +x axis)
is (2*pi*f/c) * [cos(psi), sin(psi)], with psi the direction from the
sensor element toward the target. Note this is the [cos, sin] component
order everywhere; the alternative (k_x = k*sin(psi)) swaps axes and is
not used in this codebase. A region's rows are ``scene.channel_table``'s
channels, the rows ``synth.synthesize`` writes for the same scenario; a
row's u_tx + u_rx is one gather of ``scene.element_rows``' unit vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csvrows import write_csv
from .scene import SPEED_OF_LIGHT, Scenario, Vec2, channel_table, element_rows, pair_rows

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WavenumberTile:
    """Sampled coverage of one (tx terminal, rx terminal, tx element,
    rx element) channel: points of the segment swept by the composite
    wavevector over the signal band.

    ``samples`` is an (n_freq, 2) array in rad/m; ``freqs`` holds the
    sampled frequencies in Hz.
    """

    pair: tuple[int, int, int, int]
    samples: np.ndarray
    freqs: np.ndarray


@dataclass(frozen=True)
class WavenumberRegion:
    """Coverage of a full acquisition, one row per channel: channel
    ``channels[i]`` (tx terminal, rx terminal, tx element, rx element), a
    (C, 4) int table, sweeps ``samples[i]`` ((n_freq, 2), rad/m) over ``freqs`` (Hz).
    A subset of the rows (``dataclasses.replace``) covers the channels it keeps."""

    channels: np.ndarray
    samples: np.ndarray
    freqs: np.ndarray

    @property
    def label(self) -> str:
        """The kinds of pair among the rows: "monostatic", "bistatic" or "fused"."""
        mono = self.channels[:, 0] == self.channels[:, 1]
        return "fused" if mono.any() and not mono.all() else ("monostatic" if mono.all() else "bistatic")

    @property
    def tiles(self) -> tuple[WavenumberTile, ...]:
        """Per-channel views of ``samples``."""
        return tuple(WavenumberTile(tuple(c), s, self.freqs) for c, s in zip(self.channels.tolist(), self.samples))

    @cached_property
    def pair_extents(self) -> np.ndarray:  # grouped on first read: once per region
        """(pairs, 2) k_x and k_y extents of each ``scene.pair_rows`` pair's band edges."""
        return _pair_extents(self.channels, self.samples)


def _pair_extents(channels: np.ndarray, samples: np.ndarray) -> np.ndarray:
    ends = samples[:, [0, -1]]
    starts = pair_rows(channels)[1]
    return np.maximum.reduceat(ends.max(axis=1), starts) - np.minimum.reduceat(ends.min(axis=1), starts)


@dataclass(frozen=True, eq=False)
class ResolutionEstimate:
    """Axis-aligned spectral extents and the resolution they support.

    ``rho_x``/``rho_y`` are math.inf when the corresponding extent is
    exactly zero (no coverage means no resolution); serialized output
    uses null instead of infinities. Equality is by value: equal rho and
    extents and ``np.array_equal`` band edges, which fix the hull.
    """

    rho_x: float
    rho_y: float
    dk_x: float
    dk_y: float
    ends: np.ndarray  # band-edge points of every channel

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResolutionEstimate):
            return NotImplemented
        return (self.rho_x, self.rho_y, self.dk_x, self.dk_y) == (
            other.rho_x, other.rho_y, other.dk_x, other.dk_y
        ) and np.array_equal(self.ends, other.ends)

    @cached_property
    def hull(self) -> np.ndarray:  # built on first read: only some callers need it
        return convex_hull(self.ends)

    def to_dict(self) -> dict:
        return {
            "rho_x_m": None if math.isinf(self.rho_x) else self.rho_x,
            "rho_y_m": None if math.isinf(self.rho_y) else self.rho_y,
            "dk_x_rad_per_m": self.dk_x,
            "dk_y_rad_per_m": self.dk_y,
            "hull_area_rad2_per_m2": polygon_area(self.hull),
            "hull_vertices": self.hull.tolist(),
        }


def _units_toward(elements: np.ndarray, target: Vec2) -> np.ndarray:
    """(n, 2) unit vectors from each of the (n, 2) ``elements`` toward
    ``target``; NaN rows for elements sitting on it."""
    d = np.array([target.x, target.y]) - elements
    r = np.array([math.hypot(dx, dy) for dx, dy in d.tolist()]).reshape(-1, 1)
    with np.errstate(invalid="ignore"):  # 0/0 on the target
        return d / r


def _band(f0: float, bandwidth: float, n_freq: int, baseband: bool):
    """Sampled frequencies and their wavenumber scales 2*pi*(f [- f0])/c."""
    if n_freq < 2:
        raise ValueError("n_freq must be at least 2")
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    freqs = np.linspace(f0 - bandwidth / 2.0, f0 + bandwidth / 2.0, n_freq)
    return freqs, (TWO_PI / SPEED_OF_LIGHT) * (freqs - (f0 if baseband else 0.0))


def coverage_region(
    scenario: Scenario,
    target: Vec2,
    n_freq: int = 2,
    baseband: bool = False,
) -> WavenumberRegion:
    """Coverage of every active measurement channel of a scenario.

    One row per (tx terminal, rx terminal, tx element, rx element)
    channel admitted by the association matrix: k* = (2*pi*f/c) *
    (u_tx + u_rx) at frequencies uniform over [f0 - B/2, f0 + B/2], with
    u the unit vectors from the elements toward ``target``. Each row lies
    along the bisector of its two sensor directions and has length
    (4*pi*B/c) * cos(delta_psi / 2); zero bandwidth collapses it to one
    point. The default two frequencies (the band edges) are all
    ``predicted_resolution`` needs. Each element's unit vector is
    computed once and all samples fill one array. ``baseband=True``
    shifts each segment so its center-frequency point sits at the origin
    (magnitude-only, incoherent combination)."""
    freqs, scale = _band(scenario.f0, scenario.bandwidth, n_freq, baseband)
    channels = channel_table(scenario, scenario.pairing.active_pairs())
    if not len(channels):
        raise ValueError("no active channels: association matrix selects no pairs")
    tx, rx, n, m = element_rows(scenario, channels)
    u_tx, u_rx = _units_toward(tx, target), _units_toward(rx, target)
    directions = u_tx[n] + u_rx[m]
    if len(bad := np.flatnonzero(np.isnan(directions[:, 0]))):  # the first in row order
        c = bad[0]
        raise ValueError("channel ({},{},{},{}): degenerate geometry: {} element coincides with the target"
                         .format(*channels[c].tolist(), "tx" if np.isnan(u_tx[n[c], 0]) else "rx"))
    return WavenumberRegion(channels=channels, samples=scale[:, None] * directions[:, None, :], freqs=freqs)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Planar convex hull by Andrew's monotone chain, O(n log n).

    Returns hull vertices in counter-clockwise order. Degenerate inputs
    are handled: collinear clouds reduce to their two extreme points and
    a single point to itself.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    # lexicographic sort by (x, y)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order].tolist()  # Python floats: same arithmetic, faster loop

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def polygon_area(vertices) -> float:
    """Shoelace area of a simple polygon (0 for degenerate hulls)."""
    pts = np.asarray(vertices, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def predicted_resolution(region: WavenumberRegion) -> ResolutionEstimate:
    """Resolution supported by a coverage region.

    The axis-aligned extents of the coverage give rho = 2*pi / extent per
    axis; a zero extent is reported as an unbounded (infinite) resolution.
    Each channel is a straight segment, linear and monotone in f, so its
    band edges (first and last samples) are its extremes: the extents
    (exactly those of all samples) and the convex hull come from them
    alone, for any sampling density. Slicing along x and y treats the
    covered region as a rectangle, the usual approximation."""
    ends = region.samples[:, [0, -1]].reshape(-1, 2)
    dk_x, dk_y = np.ptp(ends, axis=0).tolist()
    return ResolutionEstimate(
        rho_x=(TWO_PI / dk_x) if dk_x > 0.0 else math.inf,
        rho_y=(TWO_PI / dk_y) if dk_y > 0.0 else math.inf,
        dk_x=dk_x,
        dk_y=dk_y,
        ends=ends,
    )


def aperture_for_cross_range(stand_off: float, f0: float, psi: float, rho_xr: float) -> float:
    """Monostatic aperture length achieving cross-range resolution
    ``rho_xr`` at distance ``stand_off``: A = c*R / (2*f0*rho_xr*sin(psi)).

    ``psi`` is the observation angle; endfire (sin(psi) = 0) is rejected.
    """
    if stand_off <= 0 or f0 <= 0 or rho_xr <= 0:
        raise ValueError("stand_off, f0 and rho_xr must be positive")
    s = math.sin(psi)
    if s == 0.0:
        raise ValueError("endfire geometry: sin(psi) = 0 gives no cross-range resolution")
    return SPEED_OF_LIGHT * stand_off / (2.0 * f0 * rho_xr * s)


def bistatic_loss(alpha: float) -> float:
    """Resolution loss factor of a bistatic pair with bistatic angle
    ``alpha``: rho(alpha) / rho(0) = 1 / cos(alpha / 2).

    The loss is commonly considered tolerable up to alpha = 120 deg
    (factor 2). Raises for alpha outside [0, pi).
    """
    if not 0.0 <= alpha < math.pi:
        raise ValueError("bistatic angle must lie in [0, pi)")
    return 1.0 / math.cos(alpha / 2.0)


# --- exports ----------------------------------------------------------------

def export_coverage_csv(region: WavenumberRegion, path) -> None:
    """Write (pair_id, k_x, k_y, f_hz) rows per channel and frequency."""
    pair_ids = np.array(["%d-%d-%d-%d" % tuple(c) for c in region.channels.tolist()])
    write_csv(path, "pair_id,k_x,k_y,f_hz",
              pair_ids[:, None, None], region.samples, region.freqs[None, :, None])


def export_hull_csv(estimate: ResolutionEstimate, path) -> None:
    """Write hull polygon vertices as (k_x, k_y) rows."""
    write_csv(path, "k_x,k_y", estimate.hull[:, None, :])
