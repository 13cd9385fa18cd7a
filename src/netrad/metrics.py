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
* Peak positions are refined off-grid by a 3-point parabolic fit on
  log magnitude, removing grid-quantization bias from resolution ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import ComplexImage
from .scene import Vec2

RAYLEIGH_WIDTH_FACTOR = 0.886  # -3 dB width of a sinc mainlobe, in units of 2*pi/dk
_HALF_POWER_AMPLITUDE = 1.0 / math.sqrt(2.0)
_MAINLOBE_SEMI_AXES = 1.5  # in units of the measured -3 dB width


class _UnresolvedMainlobe(ValueError):
    """Mainlobe narrower than the grid can resolve (< 3 samples wide)."""


class _MainlobeBeyondGrid(ValueError):
    """Mainlobe -3 dB point falls outside the imaged region."""


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


def _peak_index(mag: np.ndarray) -> tuple[int, int]:
    i, j = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return int(i), int(j)


def _parabolic_vertex(lm: float, c: float, rp: float) -> tuple[float, float]:
    # vertex of the parabola through (-1, lm), (0, c), (+1, rp)
    denom = lm - 2.0 * c + rp
    if denom >= 0.0:  # flat or concave-up: keep the sample
        return 0.0, c
    delta = 0.5 * (lm - rp) / denom
    return delta, c + 0.25 * (lm - rp) * delta


def _refine_peak(image: ComplexImage) -> tuple[Vec2, float, tuple[int, int]]:
    """Sub-pixel peak location and amplitude via log-magnitude parabolas.

    Axes of size 1 are left unrefined; on any other axis a peak on the
    grid boundary is an error because the mainlobe is clipped.
    """
    mag = image.magnitude
    i, j = _peak_index(mag)
    nx, ny = mag.shape
    if (nx > 1 and i in (0, nx - 1)) or (ny > 1 and j in (0, ny - 1)):
        raise ValueError(f"image peak lies on the grid boundary at index ({i},{j})")
    peak = mag[i, j]
    if peak == 0.0:
        raise ValueError("image is identically zero")
    di = dj = 0.0
    log_amp = math.log(peak)
    amp_i = amp_j = log_amp
    with np.errstate(divide="ignore"):
        if nx > 1 and mag[i - 1, j] > 0 and mag[i + 1, j] > 0:
            di, amp_i = _parabolic_vertex(
                math.log(mag[i - 1, j]), log_amp, math.log(mag[i + 1, j])
            )
        if ny > 1 and mag[i, j - 1] > 0 and mag[i, j + 1] > 0:
            dj, amp_j = _parabolic_vertex(
                math.log(mag[i, j - 1]), log_amp, math.log(mag[i, j + 1])
            )
    amp = math.exp(max(amp_i, amp_j))
    pos = Vec2(
        image.grid.origin.x + (i + di) * image.grid.spacing[0],
        image.grid.origin.y + (j + dj) * image.grid.spacing[1],
    )
    return pos, amp, (i, j)


def _cut_width_3db(image: ComplexImage, axis: str) -> float:
    """-3 dB full width (meters) of the magnitude cut through the peak."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    mag = image.magnitude
    _, amp, (i, j) = _refine_peak(image)
    if axis == "x":
        cut, center, step = mag[:, j], i, image.grid.spacing[0]
    else:
        cut, center, step = mag[i, :], j, image.grid.spacing[1]
    if len(cut) < 3:
        raise ValueError(f"grid too small to resolve a mainlobe along {axis}")
    thresh = amp * _HALF_POWER_AMPLITUDE

    def crossing(direction: int) -> float:
        idx = center
        while 0 <= idx + direction < len(cut) and cut[idx + direction] >= thresh:
            idx += direction
        nxt = idx + direction
        if nxt < 0 or nxt >= len(cut):
            raise _MainlobeBeyondGrid(
                f"mainlobe -3 dB point along {axis} falls outside the grid"
            )
        # linear interpolation of the threshold crossing
        frac = (cut[idx] - thresh) / (cut[idx] - cut[nxt])
        return (idx + direction * frac) * step

    left, right = crossing(-1), crossing(+1)
    n_above = int(np.sum(cut >= thresh))
    if n_above < 3:
        raise _UnresolvedMainlobe(
            f"mainlobe unresolved along {axis}: only {n_above} samples above -3 dB"
        )
    return right - left


def measure_resolution(image: ComplexImage, axis: str) -> float:
    """Measured resolution along one axis, Rayleigh convention.

    The -3 dB full width of the cut through the peak, via linear
    interpolation between samples, divided by 0.886 so the value is
    comparable with the predicted 2*pi/dk. Requires a unique, interior,
    grid-resolved peak.
    """
    return _cut_width_3db(image, axis) / RAYLEIGH_WIDTH_FACTOR


def _mainlobe_mask(image: ComplexImage) -> tuple[np.ndarray, Vec2, float]:
    """Boolean mask of the mainlobe ellipse, plus refined peak pos/amp.

    Falls back to a two-pixel semi-axis on an axis whose mainlobe is
    narrower than the grid can resolve (e.g. a single lit pixel), so the
    sidelobe ratios still have a defined mainlobe to exclude.
    """
    pos, amp, _ = _refine_peak(image)
    semi = []
    for axis, spacing in zip(("x", "y"), image.grid.spacing):
        try:
            semi.append(_MAINLOBE_SEMI_AXES * _cut_width_3db(image, axis))
        except _UnresolvedMainlobe:
            semi.append(2.0 * spacing)
        except _MainlobeBeyondGrid:
            raise ValueError(
                "mainlobe region covers the whole image; enlarge the grid"
            ) from None
    x, y = image.grid.pixel_coords()
    mask = ((x - pos.x) / semi[0]) ** 2 + ((y - pos.y) / semi[1]) ** 2 <= 1.0
    if mask.all():
        raise ValueError("mainlobe region covers the whole image; enlarge the grid")
    return mask, pos, amp


def pslr(image: ComplexImage) -> float:
    """Peak-to-sidelobe ratio in dB (<= 0): strongest magnitude outside
    the mainlobe ellipse over the mainlobe peak. -inf when nothing lies
    outside the mainlobe."""
    mask, _, amp = _mainlobe_mask(image)
    outside = image.magnitude[~mask]
    peak_out = float(outside.max())
    if peak_out == 0.0:
        return -math.inf
    return 20.0 * math.log10(peak_out / amp)


def islr(image: ComplexImage) -> float:
    """Integrated sidelobe ratio in dB: energy outside the mainlobe
    ellipse over energy inside. -inf when no energy lies outside."""
    mask, _, _ = _mainlobe_mask(image)
    power = image.magnitude ** 2
    e_in = float(power[mask].sum())
    e_out = float(power[~mask].sum())
    if e_out == 0.0:
        return -math.inf
    if e_in == 0.0:
        raise ValueError("no energy inside the mainlobe region")
    return 10.0 * math.log10(e_out / e_in)


def peak_snr(noisy: ComplexImage, truth_pos: Vec2, cell: float | None = None) -> float:
    """Peak SNR in dB: |I| squared at the pixel nearest the true target
    over the variance of background pixels farther than 10 resolution
    cells from it.

    ``cell`` sets the resolution cell size in meters; when omitted it is
    the larger measured resolution of the image itself (pass it
    explicitly for images with an unresolved axis). +inf on a noiseless
    image. Needs at least 100 background pixels.
    """
    grid = noisy.grid
    xs, ys = grid.x_coords, grid.y_coords
    if not (xs[0] <= truth_pos.x <= xs[-1] and ys[0] <= truth_pos.y <= ys[-1]):
        raise ValueError("truth position lies outside the image grid")
    if cell is None:
        cell = max(measure_resolution(noisy, "x"), measure_resolution(noisy, "y"))
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
    """All quality figures of one image in a single record.

    ``peak_snr_db`` is filled only when a truth position is given.
    """
    pos, _, (i, j) = _refine_peak(image)
    snr = None
    if truth_pos is not None:
        snr = peak_snr(image, truth_pos)
    return ImageMetrics(
        peak_pos=pos,
        peak_val=complex(image.pixels[i, j]),
        rho_x_meas=measure_resolution(image, "x"),
        rho_y_meas=measure_resolution(image, "y"),
        pslr_db=pslr(image),
        islr_db=islr(image),
        peak_snr_db=snr,
    )
