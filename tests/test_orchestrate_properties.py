"""Property test of the greedy plan on random small scenes: 2-5 terminals
on a half-metre lattice, so that mirror images tie, with 0-2 Tx and 0-3
Rx elements each and a random pairing of the pairs that have channels,
bistatic-only ones included. Every objective and every ``n_active`` is
planned, infeasible outcomes included."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netrad.orchestrate import plan
from netrad.scene import AssociationMatrix, PointTarget, Scenario, Terminal, Vec2, validate
from helpers import BW, F0, TARGET, reference_plan


@st.composite
def scenes(draw):
    lattice = st.builds(lambda i, j: Vec2(0.5 * i, 0.5 * j), st.integers(-4, 4), st.integers(-2, 2))
    terminals = []
    for i in range(draw(st.integers(2, 5))):
        n_tx = draw(st.integers(0, 2))
        n_rx = draw(st.integers(0 if n_tx else 1, 3))
        terminals.append(Terminal(i, draw(lattice), tuple(draw(lattice) for _ in range(n_tx)),
                                  tuple(draw(lattice) for _ in range(n_rx))))
    n = len(terminals)
    has = np.array([[len(terminals[l].tx_elements) * len(terminals[k].rx_elements) > 0
                     for k in range(n)] for l in range(n)])
    entries = np.array(draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(entries, 0)  # bistatic only
    return Scenario(terminals=tuple(terminals), targets=(PointTarget(TARGET),), f0=F0, bandwidth=BW,
                    pairing=AssociationMatrix(entries * has))


def outcome(make):
    try:
        return make()
    except ValueError:
        return "ValueError"


@settings(max_examples=150, deadline=None)
@given(scenes())
def test_plan_equals_one_coverage_pass_per_candidate(sc):
    assert validate(sc) in ([], ["no active pair"])
    for objective in ("extent-x", "extent-y", "area"):
        for n_active in range(1, sc.n_terminals + 1):
            got = outcome(lambda: plan(sc, TARGET, n_active, objective))
            expected = outcome(lambda: reference_plan(sc, TARGET, n_active, objective))
            assert got == expected
            if got != "ValueError":
                assert got.to_dict() == expected.to_dict()  # the hull too
