import json
import math
from dataclasses import replace

import numpy as np
import pytest

from netrad.scene import (
    AssociationMatrix,
    ImageGrid,
    PointTarget,
    Scenario,
    SchemaError,
    Terminal,
    Vec2,
    load_scenario,
    scenario_from_doc,
    scenario_to_json,
    validate,
)
from helpers import lane_scenario

MINIMAL_DOC = json.dumps(
    {
        "terminals": [{"tx_elements": [[0, 0]], "rx_elements": [[0, 0]]}],
        "targets": [{"position": [0, 20]}],
        "f0_hz": 28e9,
        "bandwidth_hz": 500e6,
    }
)


def lane_doc():
    return {
        "terminals": [
            {
                "id": i,
                "phase_center": [-1.4 + 0.7 * i, 0.0],
                "tx_elements": [[-1.4 + 0.7 * i, 0.0]],
                "rx_elements": [[-1.4 + 0.7 * i, 0.0]],
            }
            for i in range(5)
        ],
        "targets": [{"position": [0.0, 20.0], "reflectivity": [1.0, 0.0]}],
        "f0_hz": 28e9,
        "bandwidth_hz": 500e6,
        "seed": 7,
    }


def test_minimal_doc_defaults():
    sc = load_scenario(MINIMAL_DOC)
    assert sc.n_terminals == 1
    assert sc.noise_power == 0.0
    assert np.array_equal(sc.sync_errors, np.zeros((1, 1)))
    assert sc.pairing == AssociationMatrix.identity(1)
    assert sc.rng_seed == 0
    assert sc.targets[0].reflectivity == 1.0 + 0.0j
    # phase center defaults to the element centroid
    assert sc.terminals[0].phase_center == Vec2(0.0, 0.0)


def test_parsed_doc_loads_like_its_text():
    assert scenario_from_doc(lane_doc()) == load_scenario(json.dumps(lane_doc()))
    with pytest.raises(SchemaError, match="top-level document must be an object"):
        scenario_from_doc([lane_doc()])


def test_lane_doc_loads():
    sc = load_scenario(json.dumps(lane_doc()))
    assert sc.n_terminals == 5
    assert sc.f0 == 28e9
    assert sc.bandwidth == 500e6
    assert sc.targets[0].position == Vec2(0.0, 20.0)
    xs = [t.phase_center.x for t in sc.terminals]
    assert xs == pytest.approx([-1.4, -0.7, 0.0, 0.7, 1.4])
    # terminals spaced by 0.7 m
    assert np.allclose(np.diff(xs), 0.7)
    assert validate(sc) == []


def test_missing_f0_names_field():
    doc = lane_doc()
    del doc["f0_hz"]
    with pytest.raises(SchemaError, match="f0_hz"):
        load_scenario(json.dumps(doc))


def test_missing_target_position_names_field():
    doc = lane_doc()
    doc["targets"][0] = {"reflectivity": 1.0}
    with pytest.raises(SchemaError, match=r"targets\[0\].position"):
        load_scenario(json.dumps(doc))


def test_parse_error_reports_line():
    with pytest.raises(SchemaError, match="line 3"):
        load_scenario('{\n"terminals": [],\n oops\n}')


def test_unknown_key_rejected():
    doc = lane_doc()
    doc["carrier"] = 1.0
    with pytest.raises(SchemaError, match="carrier"):
        load_scenario(json.dumps(doc))


def test_bad_vector_shape_names_path():
    doc = lane_doc()
    doc["terminals"][2]["rx_elements"] = [[1.0]]
    with pytest.raises(SchemaError, match=r"terminals\[2\].rx_elements\[0\]"):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d,
        lambda d: d.update(noise_power=0.25) or d,
        lambda d: d.update(pairing=[[1] * 5] * 5) or d,
        lambda d: d.update(
            sync_errors_s=[[1e-9 * (i != j) for j in range(5)] for i in range(5)]
        )
        or d,
        lambda d: d["targets"].append({"position": [3.0, 18.0], "reflectivity": [0.5, -0.5]})
        or d,
    ],
)
def test_round_trip(mutate):
    sc = load_scenario(json.dumps(mutate(lane_doc())))
    again = load_scenario(scenario_to_json(sc))
    assert again == sc
    # and serialization is stable
    assert scenario_to_json(again) == scenario_to_json(sc)


def test_validate_reports_zero_bandwidth():
    sc = load_scenario(MINIMAL_DOC)
    bad = Scenario(
        terminals=sc.terminals, targets=sc.targets, f0=sc.f0, bandwidth=0.0
    )
    assert "bandwidth must be positive" in validate(bad)


def test_validate_reports_no_active_pair():
    sc = load_scenario(MINIMAL_DOC)
    bad = Scenario(
        terminals=sc.terminals,
        targets=sc.targets,
        f0=sc.f0,
        bandwidth=sc.bandwidth,
        pairing=AssociationMatrix(np.zeros((1, 1), dtype=int)),
    )
    assert "no active pair" in validate(bad)


def test_validate_reports_pair_without_elements():
    tx_only = Terminal(0, Vec2(0, 0), (Vec2(0, 0),), ())
    sc = Scenario(
        terminals=(tx_only,),
        targets=(PointTarget(Vec2(0, 20)),),
        f0=28e9,
        bandwidth=500e6,
    )
    assert any("no rx elements" in v for v in validate(sc))


def test_validate_reports_noise_and_carrier_violations():
    sc = load_scenario(MINIMAL_DOC)
    bad = Scenario(
        terminals=sc.terminals,
        targets=sc.targets,
        f0=100e6,
        bandwidth=500e6,
        noise_power=-1.0,
    )
    v = validate(bad)
    assert "carrier f0 must exceed bandwidth/2" in v
    assert "noise power must be non-negative" in v


def test_validate_reports_negative_seed():
    doc = json.loads(MINIMAL_DOC)
    doc["seed"] = -1
    assert validate(scenario_from_doc(doc)) == ["seed must be non-negative, got -1"]


@pytest.mark.parametrize("value", [0.5, 1.7, math.nan])
def test_pairing_entry_not_0_or_1_names_entry(value):
    # 0.5 and 1.7 used to load as 0 and 1, and NaN as a huge negative integer
    doc = lane_doc()
    doc["pairing"] = [[1] * 5 for _ in range(5)]
    doc["pairing"][2][3] = value
    with pytest.raises(SchemaError, match=r"pairing\[2\]\[3\]: expected 0 or 1"):
        scenario_from_doc(doc)


@pytest.mark.parametrize("field, value", [("f0", math.inf), ("bandwidth", math.inf),
                                          ("bandwidth", math.nan)])
def test_validate_reports_non_finite_band(field, value):
    bad = replace(load_scenario(MINIMAL_DOC), **{field: value})
    assert validate(bad) == [f"{field}_hz must be finite, got {value}"]


def test_validate_is_total_on_weird_values():
    sc = Scenario(
        terminals=(Terminal(3, Vec2(math.nan, 0.0), (Vec2(0, 0),), ()),),
        targets=(PointTarget(Vec2(0, 20), 0.0),),
        f0=-1.0,
        bandwidth=-5.0,
        noise_power=math.nan,
        sync_errors=np.zeros((2, 2)),
        pairing=AssociationMatrix(np.full((1, 1), 7)),
    )
    violations = validate(sc)  # must not raise
    assert any("phase center" in v for v in violations)
    assert any("reflectivity" in v for v in violations)
    assert any("ids must be 0..L-1" in v for v in violations)
    assert any("sync_errors" in v for v in violations)
    assert any("0 or 1" in v for v in violations)


def test_validate_accepts_lane_scenario():
    assert validate(lane_scenario(m_rx=4)) == []


def test_association_matrix_helpers():
    full = AssociationMatrix.full(3)
    assert len(full.active_pairs()) == 9
    ident = AssociationMatrix.identity(3)
    assert ident.active_pairs() == [(0, 0), (1, 1), (2, 2)]
    assert ident.is_active(1, 1) and not ident.is_active(0, 1)


@pytest.mark.parametrize("origin, spacing", [
    (Vec2(0.0, 0.0), (math.nan, 0.1)),
    (Vec2(0.0, 0.0), (0.1, math.inf)),
    (Vec2(math.nan, 0.0), (0.1, 0.1)),
    (Vec2(0.0, -math.inf), (0.1, 0.1)),
])
def test_image_grid_rejects_non_finite_geometry(origin, spacing):
    # a nan spacing used to pass the positivity test and image all-nan pixels
    with pytest.raises(ValueError, match="must be finite"):
        ImageGrid(origin, spacing, (3, 3))


def test_vec2_arithmetic():
    a, b = Vec2(1.0, 2.0), Vec2(4.0, 6.0)
    assert (b - a) == Vec2(3.0, 4.0)
    assert (b - a).norm() == 5.0
    assert (2.0 * a) == Vec2(2.0, 4.0)
    assert np.asarray(a).tolist() == [1.0, 2.0]
