"""Image-quality figures: resolution, PSLR, ISLR, peak SNR.

Measurement conventions, stated once and used everywhere:

* Resolution is the -3 dB full width of the 1D cut through the peak,
  divided by 0.886 so numbers compare directly with the 2*pi/dk
  spectral-extent prediction (for a sinc mainlobe both conventions
  agree).
* The mainlobe region used by PSLR/ISLR is the ellipse around the peak
  with semi-axes 1.5x the measured -3 dB widths: wide enough to contain
  the first null of a sinc-like lobe, narrow enough not to swallow the
  first sidelobe or nearby grating lobes.
* The mainlobe is resolved along an axis when at least 3 contiguous
  samples of the cut through the peak lie at or above -3 dB; otherwise
  measuring its resolution raises and ``metrics.json`` holds the error.
* Peak positions are refined off-grid by a 3-point parabolic fit on
  log magnitude, removing grid-quantization bias from resolution ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .imaging import ComplexImage
from .scene import Vec2

RAYLEIGH_WIDTH_FACTOR = 0.886  # -3 dB width of a sinc mainlobe, in units of 2*pi/dk
_HALF_POWER_AMPLITUDE = 1.0 / math.sqrt(2.0)
_MAINLOBE_SEMI_AXES = 1.5  # in units of the measured -3 dB width
_COVERS_IMAGE = "mainlobe region covers the whole image; enlarge the grid"


@dataclass(frozen=True)
class ImageMetrics:
    """Measured quality figures of one image. dB values are relative to
    the mainlobe peak; ``peak_snr_db`` is None unless measured against a
    known target position on a noisy image."""

    peak_pos: Vec2
    peak_val: complex
    rho_x_meas: float
    rho_y_meas: float
    pslr_db: float
    islr_db: float
    peak_snr_db: float | None = None

    def to_dict(self) -> dict:
        def num(v):
            return None if v is None or math.isinf(v) else v

        return {
            "peak_pos_m": [self.peak_pos.x, self.peak_pos.y],
            "peak_val": [self.peak_val.real, self.peak_val.imag],
            "rho_x_m": num(self.rho_x_meas),
            "rho_y_m": num(self.rho_y_meas),
            "pslr_db": num(self.pslr_db),
            "islr_db": num(self.islr_db),
            "peak_snr_db": num(self.peak_snr_db),
        }


def _log_vertex(cut: np.ndarray, k: int, log_c: float) -> tuple[float, float]:
    # vertex of the parabola through the log magnitudes of ``cut`` at k-1, k, k+1;
    # (0, log_c) where it is flat or concave-up, a neighbour is zero or k is alone
    if len(cut) == 1 or not (cut[k - 1] > 0 and cut[k + 1] > 0):
        return 0.0, log_c
    lm, rp = math.log(cut[k - 1]), math.log(cut[k + 1])
    denom = lm - 2.0 * log_c + rp
    if denom >= 0.0:
        return 0.0, log_c
    delta = 0.5 * (lm - rp) / denom
    return delta, log_c + 0.25 * (rp - lm) * delta


class _Mainlobe:
    """One image's mainlobe, measured once for every figure: magnitude,
    peak (index, position and amplitude refined by log-magnitude
    parabolas) and each axis's -3 dB width, or the failure measuring it
    hit; the ellipse excluded by PSLR/ISLR is built on first use. A peak
    on the grid boundary is an error (the mainlobe is clipped), except
    along an axis of size 1, which is left unrefined.
    """

    def __init__(self, image: ComplexImage):
        self.grid = image.grid
        self.mag = mag = image.magnitude
        i, j = (int(k) for k in np.unravel_index(int(np.argmax(mag)), mag.shape))
        nx, ny = mag.shape
        if (nx > 1 and i in (0, nx - 1)) or (ny > 1 and j in (0, ny - 1)):
            raise ValueError(f"image peak lies on the grid boundary at index ({i},{j})")
        peak = mag[i, j]
        if peak == 0.0:
            raise ValueError("image is identically zero")
        cuts = (mag[:, j], i), (mag[i, :], j)
        log_amp = math.log(peak)
        (di, amp_i), (dj, amp_j) = (_log_vertex(cut, k, log_amp) for cut, k in cuts)
        self.index = (i, j)
        # each axis adds its own correction to the centre sample
        self.amp = math.exp(amp_i + amp_j - log_amp)
        self.pos = Vec2(
            self.grid.origin.x + (i + di) * self.grid.spacing[0],
            self.grid.origin.y + (j + dj) * self.grid.spacing[1],
        )
        self.widths = {
            axis: self._width_3db(axis, cut, k, step)
            for axis, (cut, k), step in zip("xy", cuts, self.grid.spacing)
        }

    def _width_3db(self, axis: str, cut: np.ndarray, center: int, step: float):
        """-3 dB full width of ``cut`` as (meters, "", ""), or as (nan,
        failure, message) with failure "small", "beyond" or "unresolved"."""
        if len(cut) < 3:
            return math.nan, "small", f"grid too small to resolve a mainlobe along {axis}"
        thresh = self.amp * _HALF_POWER_AMPLITUDE
        ends, n_above = [], 1  # n_above: the contiguous samples >= thresh around the peak
        for direction in (-1, +1):
            idx = center
            while 0 <= idx + direction < len(cut) and cut[idx + direction] >= thresh:
                idx += direction
            n_above += abs(idx - center)
            nxt = idx + direction
            if nxt < 0 or nxt >= len(cut):
                return math.nan, "beyond", f"mainlobe -3 dB point along {axis} falls outside the grid"
            # linear interpolation of the threshold crossing
            frac = (cut[idx] - thresh) / (cut[idx] - cut[nxt])
            ends.append((idx + direction * frac) * step)
        if n_above < 3:
            message = f"mainlobe unresolved along {axis}: only {n_above} samples above -3 dB"
            return math.nan, "unresolved", message
        return ends[1] - ends[0], "", ""

    def resolution(self, axis: str) -> float:
        meters, failure, message = self.widths[axis]
        if failure:
            raise ValueError(message)
        return meters / RAYLEIGH_WIDTH_FACTOR

    @cached_property
    def mask(self) -> np.ndarray:
        """Mainlobe ellipse, with a two-pixel semi-axis on an axis whose
        mainlobe is narrower than the grid can resolve (e.g. a single lit
        pixel), so the sidelobe ratios still have a mainlobe to exclude."""
        semi = []
        for (meters, failure, message), spacing in zip(self.widths.values(), self.grid.spacing):
            if failure == "unresolved":
                semi.append(2.0 * spacing)
            elif failure == "beyond":
                raise ValueError(_COVERS_IMAGE)
            elif failure:
                raise ValueError(message)
            else:
                semi.append(_MAINLOBE_SEMI_AXES * meters)
        x, y = self.grid.pixel_coords()
        mask = ((x - self.pos.x) / semi[0]) ** 2 + ((y - self.pos.y) / semi[1]) ** 2 <= 1.0
        if mask.all():
            raise ValueError(_COVERS_IMAGE)
        return mask

    def pslr(self) -> float:
        peak_out = float(self.mag[~self.mask].max())
        if peak_out == 0.0:
            return -math.inf
        return 20.0 * math.log10(peak_out / self.amp)

    def islr(self) -> float:
        power = self.mag ** 2
        e_in = float(power[self.mask].sum())
        e_out = float(power[~self.mask].sum())
        if e_out == 0.0:
            return -math.inf
        if e_in == 0.0:
            raise ValueError("no energy inside the mainlobe region")
        return 10.0 * math.log10(e_out / e_in)


def measure_resolution(image: ComplexImage, axis: str) -> float:
    """Measured resolution along one axis, Rayleigh convention.

    The -3 dB full width of the cut through the peak, via linear
    interpolation between samples, divided by 0.886 so the value is
    comparable with the predicted 2*pi/dk. Requires a unique, interior,
    grid-resolved peak.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    return _Mainlobe(image).resolution(axis)


def pslr(image: ComplexImage) -> float:
    """Peak-to-sidelobe ratio in dB (<= 0): strongest magnitude outside
    the mainlobe ellipse over the mainlobe peak. -inf when nothing lies
    outside the mainlobe."""
    return _Mainlobe(image).pslr()


def islr(image: ComplexImage) -> float:
    """Integrated sidelobe ratio in dB: energy outside the mainlobe
    ellipse over energy inside. -inf when no energy lies outside."""
    return _Mainlobe(image).islr()


def peak_snr(noisy: ComplexImage, truth_pos: Vec2, cell: float | None = None) -> float:
    """Peak SNR in dB: |I| squared at the pixel nearest the true target
    over the variance of background pixels farther than 10 resolution
    cells from it.

    ``cell`` sets the resolution cell size in meters; when omitted it is
    the larger measured resolution of the image itself (pass it
    explicitly for images with an unresolved axis). +inf on a noiseless
    image. Needs at least 100 background pixels.
    """
    return _peak_snr(noisy, truth_pos, cell, None)


def _peak_snr(noisy: ComplexImage, truth_pos: Vec2, cell: float | None, lobe: _Mainlobe | None):
    # an omitted cell is measured on ``lobe``, or on a new one when that is None too
    grid = noisy.grid
    xs, ys = grid.x_coords, grid.y_coords
    if not (xs[0] <= truth_pos.x <= xs[-1] and ys[0] <= truth_pos.y <= ys[-1]):
        raise ValueError("truth position lies outside the image grid")
    if cell is None:
        lobe = lobe or _Mainlobe(noisy)
        cell = max(lobe.resolution("x"), lobe.resolution("y"))
    i, j = grid.nearest_pixel(truth_pos)
    peak2 = float(np.abs(noisy.pixels[i, j]) ** 2)
    x, y = grid.pixel_coords()
    background = np.hypot(x - truth_pos.x, y - truth_pos.y) > 10.0 * cell
    n_bg = int(background.sum())
    if n_bg < 100:
        raise ValueError(
            f"only {n_bg} background pixels beyond 10 cells; enlarge the grid"
        )
    var = float(np.var(noisy.pixels[background]))
    if var == 0.0:
        return math.inf
    return 10.0 * math.log10(peak2 / var)


def compute_metrics(image: ComplexImage, truth_pos: Vec2 | None = None) -> ImageMetrics:
    """All quality figures of one image in a single record, from one
    measurement of its mainlobe.

    ``peak_snr_db`` is filled only when a truth position is given.
    """
    lobe = _Mainlobe(image)
    snr = None if truth_pos is None else _peak_snr(image, truth_pos, None, lobe)
    return ImageMetrics(
        peak_pos=lobe.pos,
        peak_val=complex(image.pixels[lobe.index]),
        rho_x_meas=lobe.resolution("x"),
        rho_y_meas=lobe.resolution("y"),
        pslr_db=lobe.pslr(),
        islr_db=lobe.islr(),
        peak_snr_db=snr,
    )
