import json
import math
from dataclasses import replace

import numpy as np
import pytest

from netrad.scene import AssociationMatrix, PointTarget, Scenario, Terminal, Vec2, validate
from netrad.orchestrate import (
    angles_to_positions,
    default_stand_off,
    plan,
    scenario_from_plan,
    tessellated_plan,
    tessellation_angles,
)
from netrad.wavenumber import coverage_region, predicted_resolution
from helpers import F0, TARGET, lane_scenario, monostatic_arc_scenario, point_terminal

B100 = 100e6


class TestTessellationAngles:
    def test_zero_start_is_fixed_point(self):
        angles = tessellation_angles(0.0, F0, B100, 5)
        assert angles == [0.0] * 5

    def test_reference_first_step(self):
        angles = tessellation_angles(math.radians(30), F0, B100, 2)
        s1 = math.sin(angles[1])
        assert s1 == pytest.approx(0.5 * (27.95e9 / 28.05e9), rel=1e-12)
        assert s1 == pytest.approx(0.498217, abs=1e-6)
        assert math.degrees(angles[1]) == pytest.approx(29.8824, abs=2e-3)

    def test_sines_strictly_decreasing(self):
        angles = tessellation_angles(math.radians(80), F0, B100, 6)
        sines = [math.sin(a) for a in angles]
        assert all(a > b for a, b in zip(sines, sines[1:]))

    def test_edge_abutment_identity(self):
        # sin(psi_l) (f0 + B/2) = sin(psi_{l-1}) (f0 - B/2), in units of f0 + B/2
        angles = tessellation_angles(math.pi / 2, F0, B100, 6)
        hi, lo = F0 + B100 / 2, F0 - B100 / 2
        for prev, cur in zip(angles, angles[1:]):
            gap = math.sin(cur) * hi - math.sin(prev) * lo
            assert abs(gap) <= 1e-12 * hi

    def test_count_and_start(self):
        angles = tessellation_angles(1.0, F0, B100, 4)
        assert len(angles) == 4 and angles[0] == 1.0

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            tessellation_angles(1.0, 40e6, B100, 3)
        with pytest.raises(ValueError):
            tessellation_angles(1.0, F0, B100, 0)

    @pytest.mark.parametrize("psi_0", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, psi_0):
        # nan used to fail on a degenerate channel and inf on a math domain error
        with pytest.raises(ValueError) as err:
            tessellated_plan(F0, B100, 3, TARGET, 20.0, psi_0=psi_0)
        assert str(err.value) == "psi_0 must be finite"


class TestAnglesToPositions:
    def test_broadside_placement(self):
        (pos,) = angles_to_positions([math.pi / 2], Vec2(0, 20), 20.0)
        assert pos.x == pytest.approx(0.0, abs=1e-9)
        assert pos.y == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_angles_mirror(self):
        a = math.radians(30)
        p1, p2 = angles_to_positions(
            [math.pi / 2 - a, math.pi / 2 + a], Vec2(0, 20), 20.0
        )
        assert p1.x == pytest.approx(-p2.x, rel=1e-12)
        assert p1.y == pytest.approx(p2.y, rel=1e-12)

    def test_tessellated_positions_strictly_ordered(self):
        angles = tessellation_angles(math.pi / 2, F0, B100, 4)
        positions = angles_to_positions(angles, Vec2(0, 20), 20.0)
        xs = [p.x for p in positions]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            angles_to_positions([1.0], Vec2(0, 20), 0.0)


class TestTessellatedPlan:
    def test_predicted_resolution_quarters(self):
        # four contiguous B=100 MHz acquisitions behave like one 4B band
        p = tessellated_plan(F0, B100, 4, TARGET, 20.0)
        single = scenario_from_plan(lane_scenario(n_terminals=1, m_rx=1, bandwidth=B100), replace(
            p, positions=p.positions[:1], pairing=AssociationMatrix.identity(1)))
        est1 = predicted_resolution(coverage_region(single, TARGET, n_freq=16))
        assert p.predicted.rho_y == pytest.approx(est1.rho_y / 4.0, rel=0.05)

    @pytest.mark.parametrize("count, psi_0", [(4, math.pi / 2), (3, math.radians(60))],
                             ids=["L4-broadside", "L3-60deg"])
    def test_predicts_the_scenario_it_plans(self, count, psi_0):
        # plan.json's prediction, made without targets, is that of the
        # scenario the CLI images, whose base holds one at TARGET
        base = lane_scenario(n_terminals=1, m_rx=1, bandwidth=B100)
        p = tessellated_plan(F0, B100, count, TARGET, 20.0, psi_0=psi_0)
        assert p.predicted == predicted_resolution(coverage_region(scenario_from_plan(base, p), TARGET))

    def test_angles_monotone_in_sine(self):
        p = tessellated_plan(F0, B100, 5, TARGET, 20.0)
        sines = [math.sin(a) for a in p.angles]
        assert all(a > b for a, b in zip(sines, sines[1:]))
        assert len(p.angles) == 5

    def test_plans_compare_by_value(self):
        a, b = (tessellated_plan(F0, B100, 4, TARGET, 20.0) for _ in range(2))
        assert a == b and not a != b
        assert a != tessellated_plan(F0, B100, 3, TARGET, 20.0)

    def test_plan_json_round_trips(self):
        p = tessellated_plan(F0, B100, 3, TARGET, 20.0)
        doc = json.loads(json.dumps(p.to_dict()))
        assert len(doc["angles_deg"]) == 3
        assert doc["angles_deg"][0] == pytest.approx(90.0)
        assert np.asarray(doc["pairing"]).shape == (3, 3)
        assert doc["predicted"]["rho_y_m"] == pytest.approx(
            p.predicted.rho_y, rel=1e-9
        )

    def test_scenario_from_plan_is_valid(self):
        from netrad.scene import validate

        base = lane_scenario(n_terminals=1, m_rx=1, bandwidth=B100)
        p = tessellated_plan(F0, B100, 4, TARGET, 20.0)
        sc = scenario_from_plan(base, p)
        assert validate(sc) == []
        assert sc.n_terminals == 4
        assert sc.bandwidth == B100

    def test_scenario_from_plan_keeps_base_targets(self):
        base = replace(lane_scenario(n_terminals=1, m_rx=1, bandwidth=B100), targets=(
            PointTarget(Vec2(0.0, 20.0), 0.5j), PointTarget(Vec2(0.3, 20.4), 1.0)))
        sc = scenario_from_plan(base, tessellated_plan(F0, B100, 4, TARGET, 20.0))
        assert sc.targets == base.targets


class TestGreedyPlan:
    def test_full_selection_dominates_singles(self):
        sc = monostatic_arc_scenario(4, math.radians(40))
        full = plan(sc, TARGET, 4, objective="extent-x")
        for i in range(4):
            single = plan(
                Scenario(
                    terminals=sc.terminals,
                    targets=sc.targets,
                    f0=sc.f0,
                    bandwidth=sc.bandwidth,
                    pairing=sc.pairing,
                ),
                TARGET,
                1,
                objective="extent-x",
            )
            assert full.predicted.dk_x >= single.predicted.dk_x
            assert full.predicted.dk_y >= 0

    def test_single_selection_picks_best_terminal(self):
        # oblique terminals trade k_y extent; greedy must pick the largest
        sc = monostatic_arc_scenario(5, math.radians(60))
        p = plan(sc, TARGET, 1, objective="extent-y")
        best = None
        best_val = -1.0
        for i in range(5):
            mask = np.zeros((5, 5), dtype=int)
            mask[i, i] = 1
            est = predicted_resolution(
                coverage_region(
                    Scenario(
                        terminals=sc.terminals,
                        targets=sc.targets,
                        f0=sc.f0,
                        bandwidth=sc.bandwidth,
                        pairing=AssociationMatrix(mask),
                    ),
                    TARGET,
                    n_freq=16,
                )
            )
            if est.dk_y > best_val:
                best, best_val = i, est.dk_y
        assert len(p.positions) == 1
        assert p.positions[0] == sc.terminals[best].phase_center

    def test_plan_is_deterministic(self):
        sc = monostatic_arc_scenario(6, math.radians(50))
        a = plan(sc, TARGET, 3, objective="area")
        b = plan(sc, TARGET, 3, objective="area")
        assert a.positions == b.positions
        assert a.pairing == b.pairing

    def test_plans_compare_by_value(self):
        sc = lane_scenario(pairing=AssociationMatrix.full(5))
        a, b = plan(sc, TARGET, 3), plan(sc, TARGET, 3)
        assert a.predicted is not b.predicted
        assert a == b and not a != b
        assert a != plan(sc, TARGET, 2)
        assert a != plan(sc, TARGET, 3, objective="extent-x")

    def test_tie_breaks_toward_lowest_id(self):
        # mirror-symmetric pair of terminals: identical objective values
        sc = monostatic_arc_scenario(2, math.radians(30))
        p = plan(sc, TARGET, 1, objective="extent-y")
        assert p.positions[0] == sc.terminals[0].phase_center

    def test_area_tie_within_rounding_breaks_toward_lowest_id(self):
        # terminals 1 and 3 mirror each other about the target, so their
        # hull areas differ only by rounding (~1e-12 relative)
        sc = lane_scenario(n_terminals=5, pairing=AssociationMatrix.full(5))
        p = plan(sc, TARGET, 4, objective="area")
        assert np.flatnonzero(p.pairing.entries.any(axis=1)).tolist() == [0, 1, 2, 4]

    def test_infeasible_plan_rejected(self):
        sc = lane_scenario(n_terminals=2, m_rx=1)
        with pytest.raises(ValueError):
            plan(sc, TARGET, 3)

    def test_target_on_any_active_element_rejected(self):
        # terminal 1's Tx element sits on the target in pair (1, 0) alone,
        # which no one-terminal candidate reaches; the plan used to ignore it
        sc = Scenario(terminals=(point_terminal(0, Vec2(0.0, 0.0)),
                                 Terminal(1, Vec2(1.0, 0.0), (TARGET,), (Vec2(1.0, 0.0),))),
                      targets=(PointTarget(TARGET),), f0=F0, bandwidth=B100,
                      pairing=AssociationMatrix.from_pairs(2, [(0, 0), (1, 0)]))
        assert validate(sc) == ["target 0 sits on terminal 1's tx element 0"]
        with pytest.raises(ValueError, match="tx element coincides with the target"):
            plan(sc, TARGET, 1)

    def test_no_active_pair_is_reported_by_coverage(self):
        # used to be "infeasible plan: no candidate yields an active pair"
        sc = replace(lane_scenario(n_terminals=2, m_rx=1), pairing=AssociationMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="no active channels"):
            plan(sc, TARGET, 1)

    def test_unknown_objective_rejected(self):
        sc = lane_scenario(n_terminals=2, m_rx=1)
        with pytest.raises(ValueError, match="objective"):
            plan(sc, TARGET, 1, objective="sharpest")


def test_default_stand_off_uses_first_tx_terminal():
    sc = lane_scenario(n_terminals=3, m_rx=1)
    d = default_stand_off(sc, TARGET)
    assert d == pytest.approx(math.hypot(0.7, 20.0), rel=1e-12)


class TestEndToEndTessellation:
    """Full pipeline on a tessellated plan with per-terminal apertures
    sized for equal range/cross-range resolution."""

    @staticmethod
    def build_scenarios():
        from netrad.scene import PointTarget, Terminal
        from netrad.wavenumber import aperture_for_cross_range
        from helpers import WAVELENGTH

        band = 100e6
        p = tessellated_plan(F0, band, 4, TARGET, 20.0)
        # single tx element + receive aperture twice the monostatic-
        # equivalent value, oriented broadside to the look direction
        rho_single = 3.0e8 / (2 * band)
        aperture = 2 * aperture_for_cross_range(20.0, F0, math.pi / 2, rho_single)
        m_rx = int(round(aperture / (WAVELENGTH / 2))) + 1
        terms = []
        for i, (pos, psi) in enumerate(zip(p.positions, p.angles)):
            ux, uy = -math.sin(psi), math.cos(psi)
            half = (m_rx - 1) / 2
            rx = tuple(
                Vec2(pos.x + (j - half) * WAVELENGTH / 2 * ux,
                     pos.y + (j - half) * WAVELENGTH / 2 * uy)
                for j in range(m_rx)
            )
            terms.append(Terminal(i, pos, (pos,), rx))

        def build(pairing):
            return Scenario(
                terminals=tuple(terms),
                targets=(PointTarget(TARGET),),
                f0=F0,
                bandwidth=band,
                pairing=pairing,
            )

        return build(AssociationMatrix.identity(4)), build(AssociationMatrix.full(4))

    def test_resolution_and_grating_lobes(self):
        from netrad.scene import ImageGrid
        from netrad.imaging import pair_images
        from netrad.fusion import fuse_coherent
        from netrad.metrics import compute_metrics
        from netrad.synth import suggest_window, synthesize
        from helpers import column_grid

        mono_sc, full_sc = self.build_scenarios()

        def fused(sc, grid):
            recs = synthesize(sc, suggest_window(sc, grid))
            return fuse_coherent(pair_images(recs, sc, grid))

        # tessellated monostatic fusion reaches at least 3.3x the
        # single-terminal range resolution
        col = column_grid(0.0, 14.0, 26.0, 0.045)
        single_sc = Scenario(
            terminals=mono_sc.terminals[:1],
            targets=mono_sc.targets,
            f0=F0,
            bandwidth=mono_sc.bandwidth,
            pairing=AssociationMatrix.identity(1),
        )
        rho_single = compute_metrics(fused(single_sc, col)).rho_y_meas
        rho_tess = compute_metrics(fused(mono_sc, col)).rho_y_meas
        assert rho_tess <= 0.3 * rho_single

        # scheduling the multistatic acquisitions fills angular gaps:
        # the strongest lobe within +-3 m of the mainlobe drops below the
        # monostatic-coherent baseline's
        grid = ImageGrid(Vec2(-3.0, 17.0), (0.012, 0.045), (501, 134))
        lobe_mono = compute_metrics(fused(mono_sc, grid)).pslr_db
        lobe_full = compute_metrics(fused(full_sc, grid)).pslr_db
        assert lobe_full < lobe_mono
