import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from netrad import cli, orchestrate, wavenumber
from netrad.imaging import default_grid, target_box
from netrad.orchestrate import plan
from netrad.scene import SPEED_OF_LIGHT, AssociationMatrix, Scenario, Vec2, channel_table, load_scenario
from netrad.synth import suggest_window, synthesize
from netrad.wavenumber import (
    aperture_for_cross_range,
    bistatic_loss,
    convex_hull,
    coverage_region,
    export_coverage_csv,
    export_hull_csv,
    polygon_area,
    predicted_resolution,
)
from helpers import BW, F0, TARGET, lane_scenario, monostatic_arc_scenario, one_pair_scenario

ORIGIN = Vec2(0.0, 0.0)


def channel_row(tx: Vec2, rx: Vec2, target: Vec2 = TARGET, n_freq: int = 2, **scenario):
    """Samples and frequencies of the one coverage row of a one-pair scenario."""
    region = coverage_region(one_pair_scenario(tx, rx, **scenario), target, n_freq=n_freq)
    assert region.channels.tolist() == [[0, 0, 0, 0]]
    return region.samples[0], region.freqs


class TestUnitWavevectors:
    """Each element contributes (2*pi*f/c) times its unit vector toward the
    target; monostatic rows add two equal ones."""

    def test_broadside_value(self):
        # 4*pi*28e9/3e8 = 2 * 586.4306... rad/m straight up
        row, _ = channel_row(ORIGIN, ORIGIN, bandwidth=0.0)
        expect = 4 * math.pi * 28e9 / SPEED_OF_LIGHT
        for kx, ky in row:
            assert kx == pytest.approx(0.0, abs=1e-12)
            assert ky == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(2 * 586.4306287, rel=1e-9)

    def test_magnitude_is_k_for_any_geometry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pos, tg = (Vec2(*rng.uniform(-50, 50, 2)) for _ in range(2))
            f = rng.uniform(1e9, 80e9)
            row, _ = channel_row(pos, pos, tg, bandwidth=0.0, f0=f)
            k = 2 * math.pi * f / SPEED_OF_LIGHT
            assert np.linalg.norm(row[0]) == pytest.approx(2 * k, rel=1e-12)

    def test_degenerate_geometry_raises(self):
        with pytest.raises(ValueError, match="coincides"):
            channel_row(TARGET, ORIGIN)


class TestCompositeWavenumber:
    """One monochromatic measurement excites k* = k_Tx - k_Rx."""

    def test_monostatic_magnitude(self):
        row, freqs = channel_row(ORIGIN, ORIGIN)
        np.testing.assert_allclose(np.linalg.norm(row, axis=1),
                                   4 * math.pi * freqs / SPEED_OF_LIGHT, rtol=1e-12)

    def test_forward_scatter_cancels(self):
        row, _ = channel_row(Vec2(0, 0), Vec2(0, 40), bandwidth=0.0)
        assert np.linalg.norm(row[0]) == pytest.approx(0.0, abs=1e-9)

    def test_right_angle_magnitude(self):
        # |k*| = (2 pi f / c) * sqrt(2 + 2 cos(dpsi)) -> sqrt(2) at 90 deg
        row, _ = channel_row(Vec2(0, 0), Vec2(20, 20), bandwidth=0.0)
        expect = (2 * math.pi * F0 / SPEED_OF_LIGHT) * math.sqrt(2.0)
        assert np.linalg.norm(row[0]) == pytest.approx(expect, rel=1e-12)


class TestCoverageSegment:
    """The band sweeps k* along a segment: one row of the region."""

    def test_monostatic_length(self):
        row, _ = channel_row(ORIGIN, ORIGIN, n_freq=64)
        length = np.linalg.norm(row[-1] - row[0])
        assert length == pytest.approx(4 * math.pi * BW / SPEED_OF_LIGHT, rel=1e-12)

    def test_bistatic_length_contraction(self):
        # 120 deg between the sensor directions halves the segment
        rx = Vec2(TARGET.x - 20 * math.cos(math.radians(210)),
                  TARGET.y - 20 * math.sin(math.radians(210)))
        tx = Vec2(TARGET.x - 20 * math.cos(math.radians(90)),
                  TARGET.y - 20 * math.sin(math.radians(90)))
        row, _ = channel_row(tx, rx, n_freq=16)
        length = np.linalg.norm(row[-1] - row[0])
        expect = 4 * math.pi * BW / SPEED_OF_LIGHT * math.cos(math.radians(60))
        assert length == pytest.approx(expect, rel=1e-9)

    def test_monochromatic_limit_collapses(self):
        row, _ = channel_row(ORIGIN, ORIGIN, bandwidth=1.0)
        assert np.linalg.norm(row[-1] - row[0]) < 1e-6

    def test_sample_magnitudes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            tx, rx = Vec2(*rng.uniform(-40, 40, 2)), Vec2(*rng.uniform(-40, 40, 2))
            row, freqs = channel_row(tx, rx, n_freq=9)
            psi_tx = math.atan2(TARGET.y - tx.y, TARGET.x - tx.x)
            psi_rx = math.atan2(TARGET.y - rx.y, TARGET.x - rx.x)
            s = math.sqrt(2 + 2 * math.cos(psi_tx - psi_rx))
            mags = np.linalg.norm(row, axis=1)
            expect = 2 * math.pi * freqs / SPEED_OF_LIGHT * s
            assert np.allclose(mags, expect, rtol=1e-9)

    def test_rejects_single_frequency_sampling(self):
        with pytest.raises(ValueError, match="n_freq"):
            channel_row(ORIGIN, ORIGIN, n_freq=1)


class TestCoverageRegion:
    def test_single_channel_single_tile(self):
        sc = lane_scenario(n_terminals=1, m_rx=1)
        region = coverage_region(sc, TARGET)
        assert len(region.channels) == 1
        assert region.label == "monostatic"

    def test_full_pairing_tile_count(self):
        sc = lane_scenario(n_terminals=2, m_rx=3, pairing=AssociationMatrix.full(2))
        region = coverage_region(sc, TARGET)
        # 4 pairs x (1 tx x 3 rx) channels each
        assert region.channels.tolist() == [[l, k, 0, m] for l in range(2) for k in range(2)
                                            for m in range(3)]
        assert region.samples.shape == (4 * 3, 2, 2)
        assert region.label == "fused"

    def test_identity_equals_union_of_monostatic_regions(self):
        sc = lane_scenario(n_terminals=3, m_rx=2)
        combined = coverage_region(sc, TARGET, n_freq=8)
        per_terminal = []
        for i in range(3):
            mask = np.zeros((3, 3), dtype=int)
            mask[i, i] = 1
            sub = Scenario(
                terminals=sc.terminals, targets=sc.targets, f0=sc.f0,
                bandwidth=sc.bandwidth, pairing=AssociationMatrix(mask),
            )
            per_terminal.append(coverage_region(sub, TARGET, n_freq=8))
        assert np.array_equal(combined.channels, np.concatenate([r.channels for r in per_terminal]))
        assert np.array_equal(combined.samples,
                              np.concatenate([r.samples for r in per_terminal]))

    def test_baseband_is_center_shifted_passband(self):
        sc = lane_scenario(n_terminals=1, m_rx=2)
        pb = coverage_region(sc, TARGET, n_freq=9, baseband=False)
        bb = coverage_region(sc, TARGET, n_freq=9, baseband=True)
        center = pb.samples[:, 9 // 2]  # odd count: exact f0 sample
        np.testing.assert_allclose(bb.samples, pb.samples - center[:, None], atol=1e-9)
        # base-band segments straddle the origin
        assert bb.samples.min() < 0 < bb.samples.max()

    @pytest.mark.parametrize("extent_deg,tol", [(3.0, 0.02), (5.0, 0.04)])
    def test_aperture_area_formula(self, extent_deg, tol):
        # Covered-region area is (4 pi / c)^2 f0 B dpsi; the convex hull
        # additionally closes the concave inner arc, adding ~dpsi^2/12 *
        # r_inner^2 relative area (1.3% at 3 deg, 3.5% at 5 deg).
        sc = monostatic_arc_scenario(48, math.radians(extent_deg))
        est = predicted_resolution(coverage_region(sc, TARGET, n_freq=32))
        area = polygon_area(est.hull)
        expect = (4 * math.pi / SPEED_OF_LIGHT) ** 2 * F0 * BW * math.radians(extent_deg)
        assert area == pytest.approx(expect, rel=tol)

    def test_degenerate_channel_is_identified(self):
        sc = lane_scenario(n_terminals=1, m_rx=1)
        with pytest.raises(ValueError, match=r"channel \(0,0,0,0\)"):
            coverage_region(sc, sc.terminals[0].phase_center)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")),
                         ids=lambda path: path.stem)
def test_coverage_rows_are_the_record_rows(path):
    # one channel table orders the coverage region and the records alike
    sc = load_scenario(path.read_text())
    table = channel_table(sc, sc.pairing.active_pairs())
    assert len(table)
    assert np.array_equal(coverage_region(sc, target_box(sc)[2]).channels, table)
    assert np.array_equal(synthesize(sc, suggest_window(sc)).channels, table)


class TestPredictedResolution:
    def test_broadside_range_resolution(self):
        sc = lane_scenario(n_terminals=1, m_rx=1)
        est = predicted_resolution(coverage_region(sc, TARGET))
        assert est.rho_y == pytest.approx(SPEED_OF_LIGHT / (2 * BW), rel=1e-9)
        assert est.rho_y == pytest.approx(0.30, rel=1e-3)
        assert math.isinf(est.rho_x)  # a single vertical segment has no x extent

    def test_narrowband_resolution(self):
        sc = lane_scenario(n_terminals=1, m_rx=1, bandwidth=100e6)
        est = predicted_resolution(coverage_region(sc, TARGET))
        assert est.rho_y == pytest.approx(1.5, rel=1e-9)

    def test_monochromatic_no_resolution(self):
        est = predicted_resolution(
            coverage_region(one_pair_scenario(ORIGIN, ORIGIN, bandwidth=0.0), TARGET, n_freq=4))
        assert math.isinf(est.rho_x) and math.isinf(est.rho_y)

    def test_hull_monotonicity(self):
        sc = lane_scenario(n_terminals=3, m_rx=2, pairing=AssociationMatrix.full(3))
        region = coverage_region(sc, TARGET, n_freq=8)
        prev_x = prev_y = 0.0
        for count in range(1, len(region.channels) + 1):
            est = predicted_resolution(replace(
                region, channels=region.channels[:count], samples=region.samples[:count]))
            assert est.dk_x >= prev_x and est.dk_y >= prev_y
            prev_x, prev_y = est.dk_x, est.dk_y

    def test_tile_order_invariance(self):
        sc = lane_scenario(n_terminals=3, m_rx=2, pairing=AssociationMatrix.full(3))
        region = coverage_region(sc, TARGET, n_freq=8)
        est = predicted_resolution(region)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(len(region.channels))
            shuffled = replace(region, channels=region.channels[perm], samples=region.samples[perm])
            est2 = predicted_resolution(shuffled)
            assert est2.dk_x == est.dk_x and est2.dk_y == est.dk_y

    def test_extents_match_exhaustive_pairwise_oracle(self):
        sc = lane_scenario(n_terminals=3, m_rx=1, pairing=AssociationMatrix.full(3))
        region = coverage_region(sc, TARGET, n_freq=8)
        # <= 3 channels, n_freq <= 8
        sub = replace(region, channels=region.channels[:3], samples=region.samples[:3])
        est = predicted_resolution(sub)
        pts = sub.samples.reshape(-1, 2)
        best_x = max(abs(a[0] - b[0]) for a in pts for b in pts)
        best_y = max(abs(a[1] - b[1]) for a in pts for b in pts)
        assert est.dk_x == best_x  # exact float equality against brute force
        assert est.dk_y == best_y


class TestHullIsBuiltOnlyWhereRead:
    @pytest.fixture
    def hull_calls(self, monkeypatch):
        calls = []
        hull = wavenumber.convex_hull
        monkeypatch.setattr(wavenumber, "convex_hull", lambda pts: calls.append(1) or hull(pts))
        return calls

    def test_default_grid_builds_none(self, hull_calls):
        default_grid(lane_scenario(pairing=AssociationMatrix.full(5)))
        assert hull_calls == []

    @pytest.mark.parametrize("objective", ["extent-x", "extent-y"])
    def test_extent_plan_builds_none(self, hull_calls, objective):
        plan(lane_scenario(pairing=AssociationMatrix.full(5)), TARGET, 3, objective=objective)
        assert hull_calls == []

    def test_area_plan_builds_one_per_candidate(self, hull_calls, monkeypatch):
        candidates = []
        region = orchestrate.coverage_region
        monkeypatch.setattr(orchestrate, "coverage_region",
                            lambda *a, **kw: candidates.append(1) or region(*a, **kw))
        result = plan(lane_scenario(pairing=AssociationMatrix.full(5)), TARGET, 3,
                      objective="area")
        result.to_dict()  # the winner's hull is already built
        assert len(candidates) == 5 + 4 + 3
        assert len(hull_calls) == len(candidates)

    def test_coverage_command_builds_one(self, hull_calls, tmp_path):
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "lane_multistatic.json"
        assert cli.main(["coverage", "--scenario", str(scenario), "--out", str(tmp_path),
                         "--n-freq", "2"]) == 0
        assert (tmp_path / "hull.csv").exists() and (tmp_path / "resolution.json").exists()
        assert len(hull_calls) == 1


class TestEstimateEquality:
    def estimate(self):
        path = Path(__file__).resolve().parent.parent / "scenarios" / "lane_multistatic.json"
        sc = load_scenario(path.read_text())
        return predicted_resolution(coverage_region(sc, sc.targets[0].position))

    def test_estimates_of_one_scenario_are_equal(self):
        a, b = self.estimate(), self.estimate()
        assert a is not b and a.ends is not b.ends
        assert a == b and not a != b
        b.hull  # a built hull does not take part
        assert a == b

    def test_differing_band_edges_or_extents_are_unequal(self):
        a = self.estimate()
        ends = a.ends.copy()
        ends[-1, 0] = np.nextafter(ends[-1, 0], np.inf)
        assert a != replace(a, ends=ends)
        assert a != replace(a, dk_y=np.nextafter(a.dk_y, 0))
        assert a != replace(a, ends=a.ends[:-1])
        assert a != (a.rho_x, a.rho_y)


class TestConvexHull:
    def test_square_with_interior_point(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert polygon_area(hull) == pytest.approx(1.0)

    def test_collinear_degenerates_to_endpoints(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        hull = convex_hull(pts)
        assert len(hull) == 2
        assert polygon_area(hull) == 0.0

    def test_single_point(self):
        hull = convex_hull(np.array([[2.0, 3.0]]))
        assert hull.tolist() == [[2.0, 3.0]]


class TestGuidelines:
    def test_aperture_for_cross_range_reference(self):
        a = aperture_for_cross_range(20.0, F0, math.pi / 2, 0.30)
        assert a == pytest.approx(0.357142857, rel=1e-9)

    def test_aperture_proportionalities(self):
        a = aperture_for_cross_range(20.0, F0, math.pi / 2, 0.30)
        assert aperture_for_cross_range(20.0, F0, math.pi / 2, 0.15) == pytest.approx(2 * a)
        assert aperture_for_cross_range(40.0, F0, math.pi / 2, 0.30) == pytest.approx(2 * a)

    def test_aperture_endfire_raises(self):
        with pytest.raises(ValueError, match="endfire"):
            aperture_for_cross_range(20.0, F0, 0.0, 0.30)

    def test_bistatic_loss_values(self):
        assert bistatic_loss(0.0) == 1.0
        assert bistatic_loss(math.radians(120)) == pytest.approx(2.0, rel=1e-12)
        assert bistatic_loss(math.radians(90)) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_bistatic_loss_domain(self):
        with pytest.raises(ValueError):
            bistatic_loss(math.pi)
        with pytest.raises(ValueError):
            bistatic_loss(-0.1)


class TestExports:
    def test_coverage_csv(self, tmp_path):
        sc = lane_scenario(n_terminals=1, m_rx=2)
        region = coverage_region(sc, TARGET, n_freq=4)
        path = tmp_path / "coverage.csv"
        export_coverage_csv(region, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_id,k_x,k_y,f_hz"
        assert len(lines) == 1 + 2 * 4
        assert lines[1].startswith("0-0-0-0,")

    def test_hull_csv(self, tmp_path):
        sc = lane_scenario(n_terminals=1, m_rx=2)
        est = predicted_resolution(coverage_region(sc, TARGET, n_freq=4))
        path = tmp_path / "hull.csv"
        export_hull_csv(est, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k_x,k_y"
        assert len(lines) == 1 + len(est.hull)

    def test_resolution_serializes_infinity_as_null(self):
        sc = lane_scenario(n_terminals=1, m_rx=1)
        est = predicted_resolution(coverage_region(sc, TARGET))
        doc = est.to_dict()
        assert doc["rho_x_m"] is None
        assert doc["rho_y_m"] == pytest.approx(0.2998, rel=1e-3)
