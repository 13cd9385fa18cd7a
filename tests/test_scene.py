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
    # the optional fields, as written
    doc = lane_doc()
    doc.update(noise_power=0.25, pairing=[[1] * 5] * 5,
               sync_errors_s=[[1e-9 * (i != j) for j in range(5)] for i in range(5)])
    doc["targets"].append({"position": [3.0, 18.0], "reflectivity": [0.5, -0.5]})
    sc = load_scenario(json.dumps(doc))
    assert sc.noise_power == 0.25 and sc.pairing == AssociationMatrix.full(5)
    assert np.array_equal(sc.sync_errors, 1e-9 * (1 - np.eye(5)))
    assert sc.targets[1] == PointTarget(Vec2(3.0, 18.0), 0.5 - 0.5j)


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


@pytest.mark.parametrize("field, elements, message", [
    ("rx_elements", [[0.0, 0.0], [1.0, "1"]], "terminals[2].rx_elements[1][1]: expected a number"),
    ("rx_elements", [[0.0, 0.0], [1.0, True]], "terminals[2].rx_elements[1][1]: expected a number"),
    ("tx_elements", [[0.0, 0.0], 1.0], "terminals[2].tx_elements[1]: expected a [x, y] pair"),
])
def test_bad_element_message(field, elements, message):
    doc = lane_doc()
    doc["terminals"][2][field] = elements
    with pytest.raises(SchemaError) as err:
        load_scenario(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("elements", [None, "[[0, 0]]", {"x": 0.0, "y": 0.0}],
                         ids=["null", "string", "object"])
def test_element_list_that_is_no_list_is_named(elements):
    # null used to raise TypeError ("'NoneType' object is not iterable"), and a
    # string or an object was reported at its first item, tx_elements[0]
    doc = lane_doc()
    doc["terminals"][2]["tx_elements"] = elements
    with pytest.raises(SchemaError) as err:
        load_scenario(json.dumps(doc))
    assert str(err.value) == "terminals[2].tx_elements: expected a list of [x, y] pairs"


def test_elements_are_arrays_equal_by_value():
    sc = load_scenario(json.dumps(lane_doc()))
    term = sc.terminals[2]
    assert term.tx_elements.shape == (1, 2) and term.tx_elements.dtype == float
    assert term == Terminal(2, Vec2(0.0, 0.0), [[0.0, 0.0]], (Vec2(0.0, 0.0),))
    assert term != replace(term, rx_elements=[[0.0, 0.5]])
    assert Terminal(0, Vec2(0, 0)).tx_elements.shape == (0, 2)


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


@pytest.mark.parametrize("reflectivity", [complex(math.inf, 0.0), complex(0.5, -math.inf),
                                          complex(math.nan, 0.0)], ids=["inf", "imag-inf", "nan"])
def test_validate_reports_non_finite_reflectivity(reflectivity):
    # an infinite one used to pass and a NaN one to read "magnitude must be positive"
    sc = load_scenario(MINIMAL_DOC)
    bad = replace(sc, targets=(PointTarget(Vec2(0, 20), reflectivity),))
    assert validate(bad) == ["target 0: reflectivity must be finite"]


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


def test_validate_reports_a_target_on_an_active_element():
    # used to pass, and then fail at runtime with "propagation paths must be
    # positive" or "coincides with the target"
    doc = lane_doc()
    # (0,1), (1,2), (2,3), (3,4): terminal 0 only transmits, terminal 4 only receives
    doc["pairing"] = [[int(k == l + 1) for k in range(5)] for l in range(5)]
    doc["targets"] += [{"position": doc["terminals"][i]["tx_elements"][0]} for i in (0, 4, 2)]
    assert validate(scenario_from_doc(doc)) == [
        "target 1 sits on terminal 0's tx element 0",
        "target 2 sits on terminal 4's rx element 0",
        "target 3 sits on terminal 2's tx element 0",
        "target 3 sits on terminal 2's rx element 0",
    ]
    # elements of terminals left out of the pairing are not checked
    doc["pairing"] = [[int(k == l and l < 2) for k in range(5)] for l in range(5)]
    assert validate(scenario_from_doc(doc)) == ["target 1 sits on terminal 0's tx element 0",
                                                "target 1 sits on terminal 0's rx element 0"]


BIG = 10 ** 400  # a JSON integer no float holds


@pytest.mark.parametrize("path, edit", [
    ("f0_hz", lambda d: d.update(f0_hz=BIG)),
    ("noise_power", lambda d: d.update(noise_power=BIG)),
    ("targets[0].reflectivity", lambda d: d["targets"][0].update(reflectivity=BIG)),
    ("sync_errors_s[1][2]", lambda d: d.update(
        sync_errors_s=[[BIG if (i, j) == (1, 2) else 0.0 for j in range(5)] for i in range(5)])),
    ("terminals[2].rx_elements[1][1]",
     lambda d: d["terminals"][2].update(rx_elements=[[0.0, 0.0], [1.0, -BIG]])),
    ("terminals[2].phase_center[0]", lambda d: d["terminals"][2].update(phase_center=[BIG, 0.0])),
], ids=["f0", "noise", "reflectivity", "sync", "rx-element", "phase-center"])
def test_integer_beyond_float_range_names_field(path, edit):
    # each used to raise OverflowError "int too large to convert to float"
    doc = lane_doc()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        load_scenario(json.dumps(doc))
    assert str(err.value) == f"{path}: integer beyond float range"


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
