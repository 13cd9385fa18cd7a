"""Image-quality figures: resolution, PSLR, ISLR, peak SNR.

Measurement conventions, stated once and used everywhere:

* Resolution is the -3 dB full width of the 1D cut through the peak,
  divided by 0.886 so numbers compare directly with the 2*pi/dk
  spectral-extent prediction (for a sinc mainlobe both conventions
  agree).
* The mainlobe region used by PSLR/ISLR is the ellipse around the peak
  with semi-axes 1.5x the measured -3 dB widths: wide enough to contain
  the first null of a sinc-like lobe, narrow enough not to swallow the
  first sidelobe or nearby grating lobes. The same ellipse around every
  other target of the scene is left out of the sidelobes too.
* The mainlobe is resolved along an axis when at least 3 contiguous
  samples of the cut through the peak lie at or above -3 dB. Each figure
  is measured on its own: one that fails (an unresolved axis, say) is
  NaN, ``null`` in ``metrics.json``, and the first failure's message is
  the record's ``error``.
* Peak positions are refined off-grid by a 3-point parabolic fit on
  log magnitude, removing grid-quantization bias from resolution ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import ComplexImage
from .scene import Vec2, distance

RAYLEIGH_WIDTH_FACTOR = 0.886  # -3 dB width of a sinc mainlobe, in units of 2*pi/dk
_HALF_POWER_AMPLITUDE = 1.0 / math.sqrt(2.0)
_MAINLOBE_SEMI_AXES = 1.5  # in units of the measured -3 dB width
_COVERS_IMAGE = "mainlobe region covers the whole image; enlarge the grid"


@dataclass(frozen=True)
class ImageMetrics:
    """Measured quality figures of one image. dB values are relative to
    the mainlobe peak. A figure that could not be measured is NaN and
    ``error`` holds the first failure; ``peak_snr_db`` is None unless
    measured against a known target position on a noisy image."""

    peak_pos: Vec2
    peak_val: complex
    rho_x_meas: float
    rho_y_meas: float
    pslr_db: float
    islr_db: float
    peak_snr_db: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        def num(v):
            return None if v is None or not math.isfinite(v) else v

        doc = {
            "peak_pos_m": [self.peak_pos.x, self.peak_pos.y],
            "peak_val": [self.peak_val.real, self.peak_val.imag],
            "rho_x_m": num(self.rho_x_meas),
            "rho_y_m": num(self.rho_y_meas),
            "pslr_db": num(self.pslr_db),
            "islr_db": num(self.islr_db),
            "peak_snr_db": num(self.peak_snr_db),
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


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
    hit. A peak on the grid boundary is an error (the mainlobe is
    clipped), except along an axis of size 1, which is left unrefined.
    """

    def __init__(self, image: ComplexImage):
        self.grid = image.grid
        self.mag = mag = image.magnitude
        i, j = (int(k) for k in np.unravel_index(int(np.argmax(mag)), mag.shape))
        peak = mag[i, j]
        if peak == 0.0:  # argmax of all zeros is index (0, 0), a boundary pixel
            raise ValueError("image is identically zero")
        nx, ny = mag.shape
        if (nx > 1 and i in (0, nx - 1)) or (ny > 1 and j in (0, ny - 1)):
            raise ValueError(f"image peak lies on the grid boundary at index ({i},{j})")
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

    def sidelobe_ratios(self, targets) -> tuple[float, float]:
        """(PSLR, ISLR) in dB: the strongest sidelobe magnitude over the
        peak, and the sidelobe energy over the mainlobe's; each is -inf
        when the sidelobes are all zero. The mainlobe is an ellipse, with
        a two-pixel semi-axis on an axis whose mainlobe is narrower than
        the grid can resolve (e.g. a single lit pixel), so the ratios
        still have a mainlobe to exclude. The sidelobes are the rest of
        the image less the same ellipse around each of ``targets`` but the
        one nearest the peak."""
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

        def ellipse(centre: Vec2) -> np.ndarray:
            return ((x - centre.x) / semi[0]) ** 2 + ((y - centre.y) / semi[1]) ** 2 <= 1.0

        mainlobe = ellipse(self.pos)
        sidelobes = ~mainlobe
        for target in sorted(targets, key=lambda t: distance(t, self.pos))[1:]:
            sidelobes &= ~ellipse(target)
        if not sidelobes.any():
            raise ValueError(_COVERS_IMAGE)
        peak_out = float(self.mag[sidelobes].max())
        power = self.mag ** 2
        e_in = float(power[mainlobe].sum())
        e_out = float(power[sidelobes].sum())
        if e_in == 0.0:
            raise ValueError("no energy inside the mainlobe region")
        return (20.0 * math.log10(peak_out / self.amp) if peak_out > 0.0 else -math.inf,
                10.0 * math.log10(e_out / e_in) if e_out > 0.0 else -math.inf)


def peak_snr(noisy: ComplexImage, truth_pos: Vec2, cell: float) -> float:
    """Peak SNR in dB: |I| squared at the pixel nearest the true target
    over the variance of background pixels farther than 10 resolution
    cells of ``cell`` meters from it.

    +inf on a noiseless image; NaN when ``cell`` is NaN (a resolution
    that could not be measured). Needs the truth position on the grid and
    at least 100 background pixels.
    """
    grid = noisy.grid
    xs, ys = grid.x_coords, grid.y_coords
    if not (xs[0] <= truth_pos.x <= xs[-1] and ys[0] <= truth_pos.y <= ys[-1]):
        raise ValueError("truth position lies outside the image grid")
    if math.isnan(cell):
        return math.nan
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


def compute_metrics(image: ComplexImage, truth_pos: Vec2 | None = None,
                    targets=()) -> ImageMetrics:
    """All quality figures of one image in a single record, from one
    measurement of its mainlobe.

    Each figure is measured on its own, and one that fails is NaN;
    ``error`` holds the first failure in the order peak SNR, rho_x, rho_y,
    sidelobe ratios. ``peak_snr_db`` is measured only when a truth
    position is given, with the larger measured resolution as the cell.
    ``targets`` are the scene's target positions, whose mainlobes are not
    sidelobes. A peak on the grid boundary or an all-zero image raises
    ValueError.
    """
    lobe = _Mainlobe(image)
    (rho_x, x_failure), (rho_y, y_failure) = (
        (meters / RAYLEIGH_WIDTH_FACTOR, message) for meters, _, message in lobe.widths.values()
    )
    snr, snr_failure = None, ""
    if truth_pos is not None:
        try:  # np.maximum keeps a NaN of either axis, which peak_snr returns
            snr = peak_snr(image, truth_pos, float(np.maximum(rho_x, rho_y)))
        except ValueError as err:
            snr, snr_failure = math.nan, str(err)
    try:
        (pslr_db, islr_db), lobe_failure = lobe.sidelobe_ratios(targets), ""
    except ValueError as err:
        pslr_db = islr_db = math.nan
        lobe_failure = str(err)
    failures = (snr_failure, x_failure, y_failure, lobe_failure)
    return ImageMetrics(
        peak_pos=lobe.pos,
        peak_val=complex(image.pixels[lobe.index]),
        rho_x_meas=rho_x,
        rho_y_meas=rho_y,
        pslr_db=pslr_db,
        islr_db=islr_db,
        peak_snr_db=snr,
        error=next((failure for failure in failures if failure), None),
    )
