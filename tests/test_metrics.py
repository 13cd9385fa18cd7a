import math
import re
from dataclasses import replace

import numpy as np
import pytest

from netrad.scene import ImageGrid, Vec2
from netrad.imaging import ComplexImage, pair_images
from netrad.fusion import fuse_incoherent
from netrad.metrics import _Mainlobe, compute_metrics, peak_snr
from netrad.synth import suggest_window, synthesize
from helpers import TARGET, column_grid, lane_scenario


def sinc2d_image(width, spacing, half_pixels, center_offset=(0.0, 0.0)):
    """Separable |sinc| test image with known Rayleigh width per axis."""
    n = 2 * half_pixels + 1
    grid = ImageGrid(
        Vec2(-half_pixels * spacing + center_offset[0], -half_pixels * spacing + center_offset[1]),
        (spacing, spacing),
        (n, n),
    )
    x, y = grid.pixel_coords()
    pixels = np.sinc((x - center_offset[0]) / width) * np.sinc((y - center_offset[1]) / width)
    return ComplexImage(grid=grid, pixels=pixels.astype(complex), provenance=(0, 0))


def separable_image(px, py, spacing=0.1):
    """Image whose magnitude is the outer product of two 1D profiles."""
    px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
    grid = ImageGrid(Vec2(0.0, 0.0), (spacing, spacing), (len(px), len(py)))
    return ComplexImage(grid=grid, pixels=np.outer(px, py).astype(complex), provenance=(0, 0))


def gaussian(n, sigma, center=None):
    c = (n - 1) / 2 if center is None else center
    return np.exp(-0.5 * ((np.arange(n) - c) / sigma) ** 2)


def spike(n):
    profile = np.full(n, 0.1)
    profile[n // 2] = 1.0
    return profile


class TestMeasureResolution:
    def test_exact_sinc_width(self):
        w = 0.30
        image = sinc2d_image(w, w / 10, 40)
        m = compute_metrics(image)
        assert m.rho_x_meas == pytest.approx(w, rel=0.02)
        assert m.rho_y_meas == pytest.approx(w, rel=0.02)

    def test_converges_with_grid_refinement(self):
        w = 0.30
        errors = []
        for divider in (4, 8, 16):
            image = sinc2d_image(w, w / divider, 4 * divider)
            errors.append(abs(compute_metrics(image).rho_x_meas - w))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.01 * w

    def test_off_grid_peak_is_refined(self):
        w = 0.30
        image = sinc2d_image(w, w / 8, 32, center_offset=(0.013, -0.007))
        assert compute_metrics(image).rho_x_meas == pytest.approx(w, rel=0.03)

    def test_boundary_peak_rejected(self):
        grid = ImageGrid(Vec2(0, 0), (0.1, 0.1), (5, 5))
        pixels = np.zeros((5, 5), dtype=complex)
        pixels[0, 2] = 1.0
        with pytest.raises(ValueError, match="boundary"):
            compute_metrics(ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0)))

    def test_unresolved_mainlobe_rejected(self):
        grid = ImageGrid(Vec2(0, 0), (0.1, 0.1), (5, 5))
        pixels = np.zeros((5, 5), dtype=complex)
        pixels[2, 2] = 1.0
        m = compute_metrics(ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0)))
        assert math.isnan(m.rho_x_meas)
        assert re.search("unresolved|outside the grid", m.error)

    def test_samples_beyond_the_mainlobe_are_not_counted(self):
        # a one-pixel mainlobe next to a lobe above -3 dB: only the
        # contiguous samples around the peak make up the mainlobe
        cut = spike(11)
        cut[7] = cut[8] = 0.9
        m = compute_metrics(separable_image(cut, gaussian(11, 2.0)))
        assert math.isnan(m.rho_x_meas)
        assert re.search("unresolved along x: only 1 samples", m.error)

    def test_off_grid_peak_amplitude_is_refined(self):
        # a Gaussian is a parabola in log magnitude, so each axis's vertex
        # is exact: peak 1.0 half a pixel (0.05 m) off both axes, sampled
        # at 0.973, sigma 0.3 m on a 0.1 m grid
        profile = gaussian(41, 3.0, center=20.5)
        lobe = _Mainlobe(separable_image(profile, profile))
        assert lobe.amp == pytest.approx(1.0, abs=1e-12)


class TestPslr:
    def test_sinc_first_sidelobe(self):
        # first sidelobe of a sinc: 20*log10(0.21723) = -13.26 dB
        image = sinc2d_image(0.30, 0.30 / 16, 16 * 5)
        assert compute_metrics(image).pslr_db == pytest.approx(-13.26, abs=0.2)

    def test_single_pixel_no_sidelobes(self):
        grid = ImageGrid(Vec2(0, 0), (0.1, 0.1), (7, 7))
        pixels = np.zeros((7, 7), dtype=complex)
        pixels[3, 3] = 2.0
        m = compute_metrics(ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0)))
        assert m.pslr_db == -math.inf

    def test_injected_sidelobe_sets_level_exactly(self):
        image = sinc2d_image(0.30, 0.30 / 16, 16 * 5)
        pixels = image.pixels.copy()
        spike = 10 ** (-8.0 / 20.0)
        replaced = abs(pixels[10, 10]) ** 2
        pixels[10, 10] = spike  # far from the mainlobe
        spiked = ComplexImage(grid=image.grid, pixels=pixels, provenance=(0, 0))
        assert compute_metrics(spiked).pslr_db == pytest.approx(-8.0, abs=1e-9)
        # and ISLR rises by exactly the injected energy:
        # ISLR = 10 log10(E_out / E_in) with E_out gaining spike^2 - replaced
        ratio = 10 ** (compute_metrics(image).islr_db / 10)
        mag2 = np.abs(image.pixels) ** 2
        e_in = mag2.sum() / (1 + ratio)
        e_out = mag2.sum() - e_in
        expect = 10 * math.log10((e_out + spike ** 2 - replaced) / e_in)
        assert compute_metrics(spiked).islr_db == pytest.approx(expect, abs=1e-9)

    def test_mainlobe_covering_whole_image_rejected(self):
        image = sinc2d_image(0.30, 0.30 / 10, 4)  # grid ends inside the mainlobe
        m = compute_metrics(image)
        assert math.isnan(m.pslr_db) and math.isnan(m.islr_db)
        assert m.error is not None


class TestIslr:
    def test_single_pixel_sentinel(self):
        grid = ImageGrid(Vec2(0, 0), (0.1, 0.1), (7, 7))
        pixels = np.zeros((7, 7), dtype=complex)
        pixels[3, 3] = 2.0
        m = compute_metrics(ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0)))
        assert m.islr_db == -math.inf

    def test_uniform_background_grows_with_area(self):
        # near-uniform magnitude: the out-of-lobe energy scales with area
        values = []
        for half in (20, 40):
            grid = ImageGrid(Vec2(-half * 0.1, -half * 0.1), (0.1, 0.1), (2 * half + 1,) * 2)
            pixels = np.full(grid.size, 1.0, dtype=complex)
            x, y = grid.pixel_coords()
            pixels += np.exp(-(x ** 2 + y ** 2) / (2 * 0.2 ** 2))  # resolved peak
            image = ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0))
            values.append(compute_metrics(image).islr_db)
        assert values[0] > 0
        assert values[1] > values[0]

    def test_sinc_islr_is_negative(self):
        # most energy of a 2D sinc sits in the mainlobe
        image = sinc2d_image(0.30, 0.30 / 16, 16 * 5)
        assert compute_metrics(image).islr_db < -5.0


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [3.0, 1e-6 * (2.0 - 1.0j), 1e6j])
    def test_metrics_unchanged_by_complex_scaling(self, scale):
        image = sinc2d_image(0.30, 0.30 / 12, 12 * 4)
        scaled = ComplexImage(
            grid=image.grid, pixels=scale * image.pixels, provenance=(0, 0)
        )
        m, m_scaled = compute_metrics(image), compute_metrics(scaled)
        assert m_scaled.rho_x_meas == pytest.approx(m.rho_x_meas, rel=1e-9)
        assert m_scaled.pslr_db == pytest.approx(m.pslr_db, abs=1e-9)
        assert m_scaled.islr_db == pytest.approx(m.islr_db, abs=1e-9)


class TestPeakSnr:
    def test_noiseless_sentinel(self):
        # compactly supported lobe: background is exactly zero
        grid = ImageGrid(Vec2(-2.0, -2.0), (0.1, 0.1), (41, 41))
        pixels = np.zeros((41, 41), dtype=complex)
        pixels[18:23, 18:23] = np.outer(
            [0.3, 0.8, 1.0, 0.8, 0.3], [0.3, 0.8, 1.0, 0.8, 0.3]
        )
        image = ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0))
        assert peak_snr(image, Vec2(0, 0), cell=0.05) == math.inf

    def test_doubling_noise_drops_3db(self):
        sc = lane_scenario(n_terminals=1, m_rx=1, noise_power=0.2)
        grid = column_grid(0.0, 12.0, 28.0, 0.075)
        window = suggest_window(sc, grid)
        drops = []
        for trial in range(100):
            a = replace(sc, rng_seed=trial)
            b = replace(sc, noise_power=0.4, rng_seed=trial)
            im_a = fuse_incoherent(pair_images(synthesize(a, window), a, grid))
            im_b = fuse_incoherent(pair_images(synthesize(b, window), b, grid))
            drops.append(
                peak_snr(im_a, TARGET, cell=0.3) - peak_snr(im_b, TARGET, cell=0.3)
            )
        assert np.mean(drops) == pytest.approx(3.0, abs=0.5)

    def test_truth_outside_grid_rejected(self):
        image = sinc2d_image(0.30, 0.30 / 8, 32)
        with pytest.raises(ValueError, match="outside"):
            peak_snr(image, Vec2(100.0, 0.0), cell=0.3)

    def test_too_few_background_pixels_rejected(self):
        image = sinc2d_image(0.30, 0.30 / 8, 32)
        with pytest.raises(ValueError, match="background"):
            peak_snr(image, Vec2(0, 0), cell=10.0)


class TestComputeMetrics:
    def test_aggregates_all_figures(self):
        image = sinc2d_image(0.30, 0.30 / 16, 16 * 5)
        m = compute_metrics(image)
        assert m.rho_x_meas == pytest.approx(0.30, rel=0.02)
        assert m.rho_y_meas == pytest.approx(0.30, rel=0.02)
        assert m.pslr_db == pytest.approx(-13.26, abs=0.2)
        assert m.peak_snr_db is None
        assert m.peak_pos.x == pytest.approx(0.0, abs=1e-3)
        assert abs(m.peak_val) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize(
        "image, truth, message, measured",
        [
            # boundary peak before a truth position outside the grid; it
            # measures nothing and raises
            (separable_image(gaussian(21, 2.5, center=0), gaussian(21, 2.5)), Vec2(50, 50),
             "image peak lies on the grid boundary at index (0,10)", None),
            # the SNR's truth check before an unresolved x
            (separable_image(spike(21), gaussian(21, 2.5)), Vec2(50, 50),
             "truth position lies outside the image grid", {"rho_y_m", "pslr_db", "islr_db"}),
            # x beyond the grid before an unresolved y
            (separable_image(gaussian(21, 50.0), spike(21)), None,
             "mainlobe -3 dB point along x falls outside the grid", set()),
            (separable_image(gaussian(21, 2.5), spike(21)), None,
             "mainlobe unresolved along y: only 1 samples above -3 dB", {"rho_x_m", "pslr_db", "islr_db"}),
            # both widths resolved, but their ellipse spans the grid
            (separable_image(gaussian(11, 3.6), gaussian(11, 3.6)), None,
             "mainlobe region covers the whole image; enlarge the grid", {"rho_x_m", "rho_y_m"}),
        ],
        ids=["boundary", "truth-outside", "x-beyond-grid", "y-unresolved", "mask-covers-image"],
    )
    def test_error_precedence(self, image, truth, message, measured):
        if measured is None:
            with pytest.raises(ValueError) as err:
                compute_metrics(image, truth)
            assert str(err.value) == message
            return
        m = compute_metrics(image, truth)
        assert m.error == message
        figures = {"rho_x_m": m.rho_x_meas, "rho_y_m": m.rho_y_meas, "pslr_db": m.pslr_db,
                   "islr_db": m.islr_db, "peak_snr_db": m.peak_snr_db}
        assert {name for name, value in figures.items()
                if value is not None and math.isfinite(value)} == measured
        # the record keeps every figure; those not measured are null
        doc = m.to_dict()
        assert doc["error"] == message
        assert {name for name in figures if doc[name] is not None} == measured

    def test_other_targets_are_not_sidelobes(self):
        # a second target 1 m from the peak, at 90% of its level
        profile = gaussian(41, 2.0, center=15) + 0.9 * gaussian(41, 2.0, center=25)
        image = separable_image(profile, gaussian(21, 2.0))
        peak, other = Vec2(1.5, 1.0), Vec2(2.5, 1.0)
        alone = compute_metrics(image)
        assert alone.pslr_db == pytest.approx(20 * math.log10(0.9), abs=0.01)
        both = compute_metrics(image, targets=[other, peak])
        assert both.pslr_db < -20.0
        assert both.islr_db < alone.islr_db
        # the target nearest the peak is the mainlobe itself: nothing changes
        assert compute_metrics(image, targets=[peak]) == alone

    def test_measures_the_mainlobe_once(self, monkeypatch):
        image = sinc2d_image(0.30, 0.30 / 4, 4 * 15)
        reads, masks = [], []
        magnitude = ComplexImage.magnitude.fget
        pixel_coords = ImageGrid.pixel_coords
        monkeypatch.setattr(
            ComplexImage, "magnitude", property(lambda im: reads.append(1) or magnitude(im))
        )
        monkeypatch.setattr(
            ImageGrid, "pixel_coords", lambda grid: masks.append(1) or pixel_coords(grid)
        )
        compute_metrics(image)
        assert (len(reads), len(masks)) == (1, 1)
        reads.clear()
        compute_metrics(image, Vec2(0.0, 0.0))
        assert len(reads) == 1

    def test_serialization_maps_infinities_to_null(self):
        grid = ImageGrid(Vec2(-0.3, -0.3), (0.1, 0.1), (7, 7))
        pixels = np.zeros((7, 7), dtype=complex)
        pixels[3, 3] = 1.0
        pixels[3, 2] = pixels[3, 4] = 0.9
        pixels[2, 3] = pixels[4, 3] = 0.9
        pixels[2, 2] = pixels[4, 4] = 0.5
        image = ComplexImage(grid=grid, pixels=pixels, provenance=(0, 0))
        m = compute_metrics(image)
        doc = m.to_dict()
        assert doc["pslr_db"] is not None or m.pslr_db == -math.inf
        if math.isinf(m.islr_db):
            assert doc["islr_db"] is None
