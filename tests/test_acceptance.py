"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s or check captured stdout).

Tolerances are fixed here, not calibrated: resolutions +-15%, coverage
area 2%, SNR gain +-1 dB over >= 100 seeded trials, orchestration ratio
+-25%, bistatic loss +-20%, oracle equivalence 1e-9 relative.
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from netrad.scene import (
    SPEED_OF_LIGHT,
    AssociationMatrix,
    ImageGrid,
    PointTarget,
    Scenario,
    Terminal,
    Vec2,
)
from netrad.imaging import pair_images, point_spread
from netrad.fusion import FusionWeights, fuse_coherent, fuse_incoherent
from netrad.metrics import compute_metrics, peak_snr
from netrad.orchestrate import (
    plan_scenario_prototype,
    tessellated_plan,
)
from netrad.synth import suggest_window, synthesize
from netrad.wavenumber import (
    WavenumberRegion,
    aperture_for_cross_range,
    coverage_region,
    coverage_segment,
    polygon_area,
    predicted_resolution,
)
from helpers import (
    BW,
    F0,
    TARGET,
    WAVELENGTH,
    brute_force_backprojection,
    column_grid,
    lane_scenario,
    monostatic_arc_scenario,
    point_terminal,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {title}")
        raise
    print(f"PASS criterion {number:2d}: {title}")


def fused_image(scenario, grid, weights=None):
    window = suggest_window(scenario, grid)
    records = synthesize(scenario, window)
    return fuse_coherent(pair_images(records, scenario, grid), weights)


@lru_cache(maxsize=1)
def lane_pair_images():
    """All 25 pair images of the full-pairing reference lane, on a grid
    fine enough to resolve the fused 3 cm mainlobe. Shared by the
    cooperation-ladder criterion."""
    sc = lane_scenario(pairing=AssociationMatrix.full(5))
    grid = ImageGrid(Vec2(-0.55, 19.55), (0.004, 0.03), (276, 31))
    window = suggest_window(sc, grid)
    records = synthesize(sc, window)
    return sc, grid, pair_images(records, sc, grid)


def test_criterion_01_range_resolution():
    with criterion(1, "monostatic terminal: PSF resolution 0.30 m +-15% (B=500 MHz)"):
        sc = lane_scenario(n_terminals=1)
        grid = ImageGrid(Vec2(-1.05, 18.95), (0.075, 0.075), (29, 29))
        psf = point_spread(sc, TARGET, grid)
        m = compute_metrics(psf)
        rho_r, rho_xr = m.rho_y_meas, m.rho_x_meas
        assert rho_r == pytest.approx(0.30, rel=0.15)
        assert rho_xr == pytest.approx(0.30, rel=0.15)


def test_criterion_02_cross_range_sizing():
    with criterion(2, "aperture 0.357 m at 20 m gives 0.30 m cross-range +-15%"):
        aperture = aperture_for_cross_range(20.0, F0, math.pi / 2, 0.30)
        assert aperture == pytest.approx(0.357, abs=5e-4)
        # realize the monostatic aperture as half-wavelength-spaced
        # colocated tx/rx positions
        count = int(round(aperture / (WAVELENGTH / 2))) + 1
        xs = (np.arange(count) - (count - 1) / 2) * WAVELENGTH / 2
        terms = tuple(point_terminal(i, Vec2(float(x), 0.0)) for i, x in enumerate(xs))
        sc = Scenario(
            terminals=terms,
            targets=(PointTarget(TARGET),),
            f0=F0,
            bandwidth=BW,
            pairing=AssociationMatrix.identity(count),
        )
        grid = ImageGrid(Vec2(-1.0, 19.0), (0.05, 0.05), (41, 41))
        image = fused_image(sc, grid)
        assert compute_metrics(image).rho_x_meas == pytest.approx(0.30, rel=0.15)


def test_criterion_03_coverage_area_formula():
    with criterion(3, "3-degree aperture hull area matches (4pi/c)^2 f0 B dpsi within 2%"):
        sc = monostatic_arc_scenario(72, math.radians(3.0))
        est = predicted_resolution(coverage_region(sc, TARGET, n_freq=48))
        area = polygon_area(est.hull)
        expect = (4 * math.pi / SPEED_OF_LIGHT) ** 2 * F0 * BW * math.radians(3.0)
        assert area == pytest.approx(expect, rel=0.02)


def test_criterion_04_incoherent_snr_gain():
    with criterion(4, "L=5 incoherent fusion: peak-SNR gain 7.0 +- 1 dB over 100 trials"):
        sc = lane_scenario(n_terminals=5, m_rx=1, noise_power=0.35)
        grid = column_grid(0.0, 12.0, 28.0, 0.075)
        window = suggest_window(sc, grid)
        gains = []
        for trial in range(100):
            sct = replace(sc, rng_seed=trial)
            images = pair_images(synthesize(sct, window), sct, grid)
            fused = fuse_incoherent(images)
            single = fuse_incoherent(images[:1])
            gains.append(
                peak_snr(fused, TARGET, cell=0.30) - peak_snr(single, TARGET, cell=0.30)
            )
        mean_gain = float(np.mean(gains))
        assert mean_gain == pytest.approx(10 * math.log10(5), abs=1.0)


def test_criterion_05_cooperation_ladder():
    with criterion(5, "cooperation ladder: mainlobe, grating lobes, multistatic gain"):
        sc, grid, images = lane_pair_images()
        mono = [im for im in images if im.provenance[0] == im.provenance[1]]

        # (a) coherent monostatic fusion narrows the mainlobe below every
        # single-terminal mainlobe
        fused_mono = fuse_coherent(mono)
        m_mono = compute_metrics(fused_mono)
        width_mono = m_mono.rho_x_meas
        for im in mono:
            assert width_mono < compute_metrics(im).rho_x_meas

        # (b) but the gaps between the five coverage patches leave grating
        # lobes above -10 dB
        pslr_mono = m_mono.pslr_db
        assert pslr_mono > -10.0

        # (c) full multistatic fusion fills the gaps: the highest lobe
        # drops by >= 3 dB and the mainlobe widens by no more than 10%.
        # Pair images are weighted by inverse midpoint multiplicity
        # (virtual-array redundancy compensation): the lane's uniform
        # spacing makes several pairs share one bisector and uniform
        # weights would taper the fused spectrum instead of filling it.
        counts = {}
        for im in images:
            l, k = im.provenance
            mid = round(
                sc.terminals[l].phase_center.x + sc.terminals[k].phase_center.x, 9
            )
            counts[mid] = counts.get(mid, 0) + 1
        weights = FusionWeights(
            {
                im.provenance: 1.0
                / counts[
                    round(
                        sc.terminals[im.provenance[0]].phase_center.x
                        + sc.terminals[im.provenance[1]].phase_center.x,
                        9,
                    )
                ]
                for im in images
            }
        )
        fused_multi = fuse_coherent(images, weights)
        m_multi = compute_metrics(fused_multi)
        pslr_multi, width_multi = m_multi.pslr_db, m_multi.rho_x_meas
        assert pslr_multi <= pslr_mono - 3.0
        assert width_multi <= 1.10 * width_mono


def test_criterion_06_orchestration_4x():
    with criterion(6, "tessellation: fused rho_y = single/4 +-25%, edges abut to 1e-12"):
        band = 100e6
        plan = tessellated_plan(F0, band, 4, TARGET, 20.0)

        # edge-abutment identity, in units of (f0 + B/2)
        hi, lo = F0 + band / 2, F0 - band / 2
        for prev, cur in zip(plan.angles, plan.angles[1:]):
            assert abs(math.sin(cur) * hi - math.sin(prev) * lo) <= 1e-12 * hi

        grid = column_grid(0.0, 14.0, 26.0, 0.045)
        single = plan_scenario_prototype(
            plan.positions[:1], AssociationMatrix.identity(1), F0, band, TARGET
        )
        tessellated = plan_scenario_prototype(
            plan.positions, AssociationMatrix.identity(4), F0, band, TARGET
        )
        rho_single = compute_metrics(fused_image(single, grid)).rho_y_meas
        rho_fused = compute_metrics(fused_image(tessellated, grid)).rho_y_meas
        assert rho_fused == pytest.approx(rho_single / 4.0, rel=0.25)


def test_criterion_07_bistatic_loss_law():
    with criterion(7, "bistatic resolution loss 1/cos(alpha/2) at 60 and 90 deg +-20%"):
        grid = column_grid(0.0, 18.0, 22.0, 0.02)
        sc0 = lane_scenario(n_terminals=1, m_rx=1)
        rho0 = compute_metrics(fused_image(sc0, grid)).rho_y_meas

        for alpha_deg in (60.0, 90.0):
            alpha = math.radians(alpha_deg)
            # Tx and Rx symmetric about broadside on a 20 m circle
            psi_tx, psi_rx = math.pi / 2 + alpha / 2, math.pi / 2 - alpha / 2
            pos_tx = Vec2(
                TARGET.x - 20 * math.cos(psi_tx), TARGET.y - 20 * math.sin(psi_tx)
            )
            pos_rx = Vec2(
                TARGET.x - 20 * math.cos(psi_rx), TARGET.y - 20 * math.sin(psi_rx)
            )
            sc = Scenario(
                terminals=(
                    Terminal(0, pos_tx, (pos_tx,), ()),
                    Terminal(1, pos_rx, (), (pos_rx,)),
                ),
                targets=(PointTarget(TARGET),),
                f0=F0,
                bandwidth=BW,
                pairing=AssociationMatrix(np.array([[0, 1], [0, 0]])),
            )
            rho = compute_metrics(fused_image(sc, grid)).rho_y_meas
            assert rho / rho0 == pytest.approx(1.0 / math.cos(alpha / 2), rel=0.20)


def test_criterion_08_opposite_side_geometry():
    with criterion(8, "opposite-side pair: dk_y ~ 0 and y-cut flat within 1 dB over +-5 m"):
        pos_tx, pos_rx = Vec2(0.0, 40.0), Vec2(1.4, 0.0)
        sc = Scenario(
            terminals=(
                Terminal(0, pos_tx, (pos_tx,), ()),
                Terminal(1, pos_rx, (), (pos_rx,)),
            ),
            targets=(PointTarget(TARGET),),
            f0=F0,
            bandwidth=BW,
            pairing=AssociationMatrix(np.array([[0, 1], [0, 0]])),
        )
        est = predicted_resolution(coverage_region(sc, TARGET))
        # essentially no coverage along y: a band 500x narrower than the
        # monostatic 4*pi*B/c
        assert est.dk_y < 0.05
        assert est.rho_y > 100.0

        grid = column_grid(0.0, 15.0, 25.0, 0.05)
        image = fused_image(sc, grid)
        mag = image.magnitude[0]
        variation_db = 20 * math.log10(mag.max() / mag.min())
        assert variation_db < 1.0


def test_criterion_09_backprojection_oracle():
    with criterion(9, "back-projection equals brute force to 1e-9; worker-count invariant"):
        # one bistatic pair, 2 tx x 4 rx = 8 channels
        tx_els = tuple(Vec2(x, 0.0) for x in (-0.1, 0.1))
        rx_els = tuple(Vec2(0.7 + 0.005 * i, 0.0) for i in range(4))
        terms = (
            Terminal(0, Vec2(0, 0), tx_els, ()),
            Terminal(1, Vec2(0.7, 0), (), rx_els),
        )
        sc = Scenario(
            terminals=terms,
            targets=(PointTarget(TARGET), PointTarget(Vec2(0.4, 20.6), 0.5 - 0.2j)),
            f0=F0,
            bandwidth=BW,
            pairing=AssociationMatrix(np.array([[0, 1], [0, 0]])),
        )
        grid = ImageGrid(Vec2(-1.2, 18.8), (0.075, 0.075), (32, 32))
        window = suggest_window(sc, grid)
        records = synthesize(sc, window)
        assert len(records) == 8

        (image,) = pair_images(records, sc, grid)
        oracle = brute_force_backprojection(records, sc, grid)
        peak = np.abs(oracle).max()
        np.testing.assert_allclose(image.pixels, oracle, rtol=1e-9, atol=1e-9 * peak)

        for workers in (2, 8):
            (again,) = pair_images(records, sc, grid, workers=workers)
            assert np.array_equal(image.pixels, again.pixels)


def test_criterion_10_monochromatic_degeneracy():
    with criterion(10, "zero bandwidth: coverage collapses to a point, resolution unbounded"):
        origin = Vec2(0.0, 0.0)
        tile = coverage_segment(origin, origin, TARGET, F0, 0.0, n_freq=8)
        assert np.all(tile.samples == tile.samples[0])  # a single point

        est = predicted_resolution(WavenumberRegion(
            pairs=(tile.pair,), samples=tile.samples[None], freqs=tile.freqs, label="monostatic"
        ))
        assert math.isinf(est.rho_x) and math.isinf(est.rho_y)
        assert est.dk_x == 0.0 and est.dk_y == 0.0

        # B -> 0 limit: endpoints collapse within 1e-6 rad/m
        near = coverage_segment(origin, origin, TARGET, F0, 1.0, n_freq=2)
        assert np.linalg.norm(near.samples[-1] - near.samples[0]) < 1e-6
