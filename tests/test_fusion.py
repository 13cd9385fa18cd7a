import math
from dataclasses import replace

import numpy as np
import pytest

from netrad.scene import ImageGrid, Vec2
from netrad.imaging import ComplexImage, pair_images
from netrad.fusion import FusionWeights, fuse_coherent, fuse_incoherent
from netrad.metrics import peak_snr
from netrad.synth import suggest_window, synthesize
from helpers import TARGET, column_grid, lane_scenario

GRID = ImageGrid(Vec2(-1.0, 19.0), (0.25, 0.25), (9, 9))


def make_image(pixels, provenance=(0, 0)):
    return ComplexImage(grid=GRID, pixels=np.asarray(pixels, dtype=complex), provenance=provenance)


def random_image(rng, provenance):
    return make_image(
        rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size),
        provenance,
    )


class TestIncoherent:
    def test_identical_images_average_to_single_magnitude(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
        images = [make_image(base, (i, i)) for i in range(4)]
        fused = fuse_incoherent(images)
        np.testing.assert_allclose(fused.pixels.real, np.abs(base), rtol=1e-12)
        assert np.all(fused.pixels.imag == 0)
        assert fused.provenance == "fused:inc"

    def test_phase_is_discarded(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
        a = make_image(base, (0, 0))
        b = make_image(-base, (1, 1))  # opposite phase
        c = make_image(base, (1, 1))
        np.testing.assert_array_equal(
            fuse_incoherent([a, b]).pixels, fuse_incoherent([a, c]).pixels
        )

    def test_output_non_negative(self):
        rng = np.random.default_rng(2)
        images = [random_image(rng, (i, i)) for i in range(3)]
        fused = fuse_incoherent(images)
        assert np.all(fused.pixels.real >= 0)

    def test_rejects_bistatic_image(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="monostatic"):
            fuse_incoherent([random_image(rng, (0, 1))])

    def test_rejects_grid_mismatch(self):
        rng = np.random.default_rng(4)
        a = random_image(rng, (0, 0))
        other = ImageGrid(Vec2(0, 0), (0.25, 0.25), (9, 9))
        b = ComplexImage(grid=other, pixels=a.pixels.copy(), provenance=(1, 1))
        with pytest.raises(ValueError, match="common grid"):
            fuse_incoherent([a, b])

    def test_grid_mismatch_reported_before_bistatic_image(self):
        rng = np.random.default_rng(5)
        bistatic = random_image(rng, (0, 1))
        other = ImageGrid(Vec2(0, 0), (0.25, 0.25), (9, 9))
        mono = ComplexImage(grid=other, pixels=bistatic.pixels.copy(), provenance=(1, 1))
        with pytest.raises(ValueError, match="common grid"):
            fuse_incoherent([bistatic, mono])

    def test_snr_improves_with_image_count(self):
        # noisy copies of one scene: peak SNR grows roughly linearly
        sc = lane_scenario(n_terminals=5, m_rx=1, noise_power=0.3, seed=1)
        grid = column_grid(0.0, 12.0, 28.0, 0.075)
        window = suggest_window(sc, grid)
        gains = []
        for trial in range(30):
            sct = replace(sc, rng_seed=trial)
            images = pair_images(synthesize(sct, window), sct, grid)
            fused = fuse_incoherent(images)
            single = fuse_incoherent(images[:1])
            gains.append(
                peak_snr(fused, TARGET, cell=0.3) - peak_snr(single, TARGET, cell=0.3)
            )
        mean_gain = np.mean(gains)
        assert 10 * math.log10(5) == pytest.approx(mean_gain, abs=1.5)


class TestCoherent:
    def test_copies_scale_amplitude(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
        images = [make_image(base, (i, i)) for i in range(5)]
        weights = FusionWeights({(i, i): 1.0 for i in range(5)})
        fused = fuse_coherent(images, weights)
        np.testing.assert_allclose(fused.pixels, 5.0 * base, rtol=1e-12)

    def test_opposite_phase_cancels(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
        a = make_image(base, (0, 0))
        b = make_image(-base, (1, 1))
        fused = fuse_coherent([a, b], FusionWeights({(0, 0): 1.0, (1, 1): 1.0}))
        assert np.abs(fused.pixels).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(7)
        i1 = [random_image(rng, (0, 0)), random_image(rng, (0, 1))]
        i2 = [random_image(rng, (0, 0)), random_image(rng, (0, 1))]
        alpha, beta = 2.0 - 1.0j, -0.5 + 3.0j
        mixed = [
            make_image(alpha * a.pixels + beta * b.pixels, a.provenance)
            for a, b in zip(i1, i2)
        ]
        w = FusionWeights({(0, 0): 0.3, (0, 1): 0.7})
        direct = fuse_coherent(mixed, w).pixels
        combined = alpha * fuse_coherent(i1, w).pixels + beta * fuse_coherent(i2, w).pixels
        np.testing.assert_allclose(direct, combined, rtol=0, atol=1e-12)

    def test_weight_scaling_scales_output(self):
        rng = np.random.default_rng(8)
        images = [random_image(rng, (i, i)) for i in range(3)]
        w1 = FusionWeights({(i, i): 0.2 for i in range(3)})
        w2 = FusionWeights({(i, i): 1.0 for i in range(3)})
        a, b = fuse_coherent(images, w1), fuse_coherent(images, w2)
        np.testing.assert_allclose(5.0 * a.pixels, b.pixels, rtol=1e-12)
        assert np.argmax(np.abs(a.pixels)) == np.argmax(np.abs(b.pixels))

    def test_default_weights_are_uniform(self):
        rng = np.random.default_rng(9)
        images = [random_image(rng, (i, i)) for i in range(4)]
        fused = fuse_coherent(images)
        expect = sum(im.pixels for im in images) / 4.0
        np.testing.assert_allclose(fused.pixels, expect, rtol=1e-12)

    def test_missing_weight_is_an_error(self):
        rng = np.random.default_rng(10)
        images = [random_image(rng, (0, 0)), random_image(rng, (1, 1))]
        with pytest.raises(ValueError, match="no weight"):
            fuse_coherent(images, FusionWeights({(0, 0): 1.0}))


class TestWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FusionWeights({(0, 0): -1.0})

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            FusionWeights({(0, 0): 0.0})

    def test_uniform_sums_to_one(self):
        rng = np.random.default_rng(15)
        images = [random_image(rng, (i, i)) for i in range(8)]
        w = FusionWeights.uniform(images)
        assert sum(w.values.values()) == pytest.approx(1.0)
