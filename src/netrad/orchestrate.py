"""Acquisition planning: wavenumber tessellation and subset selection.

The tessellation recursion picks observation angles so that the radial
coverage bands of successive acquisitions abut exactly:

    sin(psi_l) = sin(psi_{l-1}) * (f0 - B/2) / (f0 + B/2)

Each band projects onto [(f0-B/2)*sin(psi), (f0+B/2)*sin(psi)] (times
4*pi/c) along k_y, so the upper edge of step l meets the lower edge of
step l-1 and the union spans an L-fold equivalent bandwidth without
gaps: L acquisitions buy an L-times finer resolution along y from the
same per-terminal bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .scene import AssociationMatrix, Scenario, Terminal, Vec2, distance
from .wavenumber import (
    ResolutionEstimate,
    coverage_region,
    polygon_area,
    predicted_resolution,
)

_OBJECTIVES = ("extent-x", "extent-y", "area")


@dataclass(frozen=True)
class OrchestrationPlan:
    """A planned acquisition: observation angles, terminal placements at
    a fixed stand-off range, the pairing to use and the resolution the
    coverage supports. Equality is by value, field by field: the pairing
    and the estimate compare their arrays with ``np.array_equal``."""

    angles: tuple[float, ...]
    positions: tuple[Vec2, ...]
    pairing: AssociationMatrix
    predicted: ResolutionEstimate

    def to_dict(self) -> dict:
        return {
            "angles_deg": [math.degrees(a) for a in self.angles],
            "positions_m": [[p.x, p.y] for p in self.positions],
            "pairing": self.pairing.entries.tolist(),
            "predicted": self.predicted.to_dict(),
        }


def tessellation_angles(psi_0: float, f0: float, bandwidth: float, count: int) -> list[float]:
    """Observation angles whose coverage bands abut without gaps.

    Starts at ``psi_0`` and applies the contiguity recursion ``count - 1``
    times. The band-edge identity sin(psi_l)*(f0+B/2) =
    sin(psi_{l-1})*(f0-B/2) holds exactly by construction.
    """
    if not f0 > bandwidth / 2.0 > 0.0:
        raise ValueError("need f0 > bandwidth/2 > 0")
    if count < 1:
        raise ValueError("need at least one angle")
    if not math.isfinite(psi_0):
        raise ValueError("psi_0 must be finite")
    ratio = (f0 - bandwidth / 2.0) / (f0 + bandwidth / 2.0)
    angles = [psi_0]
    s = math.sin(psi_0)
    for _ in range(count - 1):
        s *= ratio
        angles.append(math.asin(s))
    return angles


def angles_to_positions(angles: list[float], target: Vec2, stand_off: float) -> list[Vec2]:
    """Place one terminal per angle so the unit vector from terminal to
    target points along [cos(psi), sin(psi)], at the given range."""
    if stand_off <= 0:
        raise ValueError("stand-off range must be positive")
    return [
        Vec2(target.x - stand_off * math.cos(a), target.y - stand_off * math.sin(a))
        for a in angles
    ]


def _observation_angle(position: Vec2, target: Vec2) -> float:
    return math.atan2(target.y - position.y, target.x - position.x)


def _objective_value(estimate: ResolutionEstimate, objective: str) -> float:
    if objective == "extent-x":
        return estimate.dk_x
    if objective == "extent-y":
        return estimate.dk_y
    return polygon_area(estimate.hull)


def plan(
    scenario: Scenario,
    target: Vec2,
    n_active: int,
    objective: str = "extent-y",
) -> OrchestrationPlan:
    """Greedy selection of ``n_active`` terminals maximizing a coverage
    objective at ``target``.

    Candidates are scored by the coverage extent (or hull area) of the
    already-selected set plus the candidate, under the scenario
    pairing restricted to that set; ties break toward the lowest
    terminal id, so the plan is deterministic.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")
    n = scenario.n_terminals
    if not 1 <= n_active <= n:
        raise ValueError(f"n_active must be in 1..{n}")

    selected: list[int] = []
    remaining = list(range(n))
    for _ in range(n_active):
        best_id, best_val = None, -math.inf
        for cand in remaining:
            trial = sorted(selected + [cand])
            pairing = AssociationMatrix.from_pairs(n, [
                (l, k) for l, k in scenario.pairing.active_pairs() if l in trial and k in trial])
            if not pairing.active_pairs():
                continue
            est = predicted_resolution(coverage_region(replace(scenario, pairing=pairing), target))
            val = _objective_value(est, objective)
            if val > best_val * (1.0 + 1e-9):  # ties within rounding keep the lowest id
                best_id, best_val, best = cand, val, (pairing, est)
        if best_id is None:
            raise ValueError("infeasible plan: no candidate yields an active pair")
        selected.append(best_id)
        remaining.remove(best_id)

    selected.sort()
    pairing, est = best  # the last round's winner is the selected set
    angles = [
        _observation_angle(scenario.terminals[i].phase_center, target) for i in selected
    ]
    order = sorted(range(len(selected)), key=lambda i: -math.sin(angles[i]))
    return OrchestrationPlan(
        angles=tuple(angles[i] for i in order),
        positions=tuple(scenario.terminals[selected[i]].phase_center for i in order),
        pairing=pairing,
        predicted=est,
    )


def tessellated_plan(
    f0: float,
    bandwidth: float,
    count: int,
    target: Vec2,
    stand_off: float,
    psi_0: float = math.pi / 2.0,
) -> OrchestrationPlan:
    """Plan ``count`` acquisitions at tessellated angles around ``target``.

    Terminals are placed at the stand-off range and fully paired: every
    monostatic and multistatic acquisition is scheduled, the multistatic
    ones filling the angular gaps between the monostatic tiles.
    """
    angles = tessellation_angles(psi_0, f0, bandwidth, count)
    positions = angles_to_positions(angles, target, stand_off)
    pairing = AssociationMatrix.full(count)
    # point terminals keep each tile on its segment; coverage reads no targets
    placed = Scenario(terminals=_point_terminals(positions), targets=(), f0=f0,
                      bandwidth=bandwidth, pairing=pairing)
    est = predicted_resolution(coverage_region(placed, target))
    return OrchestrationPlan(
        angles=tuple(angles), positions=tuple(positions), pairing=pairing, predicted=est
    )


def _point_terminals(positions) -> tuple[Terminal, ...]:
    return tuple(Terminal(i, p, tx_elements=(p,), rx_elements=(p,)) for i, p in enumerate(positions))


def scenario_from_plan(base: Scenario, plan_: OrchestrationPlan) -> Scenario:
    """Concrete scenario executing a plan with the base scenario's
    carrier, bandwidth, targets, noise and seed: point terminals at the
    planned positions, synchronized, with the plan's pairing. The plan
    should have been made for the base's carrier and bandwidth, so that
    its coverage bands abut."""
    return replace(
        base,
        terminals=_point_terminals(plan_.positions),
        pairing=plan_.pairing,
        sync_errors=None,
    )


def default_stand_off(scenario: Scenario, target: Vec2) -> float:
    """Stand-off range for angle-to-position mapping: the distance from
    the first transmitting terminal's phase center to the target."""
    for term in scenario.terminals:
        if len(term.tx_elements):
            return distance(term.phase_center, target)
    raise ValueError("scenario has no transmitting terminal")
