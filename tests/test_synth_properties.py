"""Property tests of the array-form simulator against the channel-by-
channel reference of ``tests/helpers.py``: windows and records must be
equal exactly, and a truncating window must name the same channel."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netrad.scene import AssociationMatrix, ImageGrid, PointTarget, Scenario, Terminal, Vec2, channel_table
from netrad.synth import pixel_delay_bounds, suggest_window, synthesize
from helpers import BW, F0, reference_pixel_delay_bounds, reference_synthesize, reference_window


@st.composite
def scenes(draw):
    offset = st.floats(-0.1, 0.1)
    n_terms = draw(st.integers(1, 3))
    terminals = []
    for i in range(n_terms):
        center = Vec2((i - (n_terms - 1) / 2) * 0.7 + draw(offset), draw(offset))
        elements = [
            tuple(Vec2(center.x + draw(offset), center.y + draw(offset))
                  for _ in range(draw(st.integers(1, count))))
            for count in (2, 4)
        ]
        terminals.append(Terminal(i, center, *elements))
    entries = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n_terms**2, max_size=n_terms**2))
    ).reshape(n_terms, n_terms)
    entries[draw(st.integers(0, n_terms - 1)), draw(st.integers(0, n_terms - 1))] = 1
    targets = tuple(
        PointTarget(
            Vec2(draw(st.floats(-1.0, 1.0)), draw(st.floats(8.0, 12.0))),
            complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    sync = draw(st.lists(st.floats(-2e-9, 2e-9), min_size=n_terms**2, max_size=n_terms**2))
    return Scenario(
        terminals=tuple(terminals),
        targets=targets,
        f0=F0,
        bandwidth=BW,
        noise_power=draw(st.sampled_from([0.0, 0.1])),
        pairing=AssociationMatrix(entries),
        sync_errors=np.array(sync).reshape(n_terms, n_terms),
        rng_seed=draw(st.integers(0, 99)),
    )


@settings(max_examples=60, deadline=None)
@given(scenes(), st.data())
def test_pixel_delay_bounds_equal_the_scalar_reach_sums(sc, data):
    # the grid may hold the elements (y near 0) or lie beyond them
    origin = Vec2(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-0.5, 10.0)))
    spacing = (data.draw(st.floats(1e-3, 0.2)), data.draw(st.floats(1e-3, 0.2)))
    grid = ImageGrid(origin, spacing, (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))))
    pairs = data.draw(st.permutations(sc.pairing.active_pairs()))
    table = channel_table(sc, pairs)
    assert table.tolist() == [[l, k, n, m] for l, k in pairs
                              for n in range(len(sc.terminals[l].tx_elements))
                              for m in range(len(sc.terminals[k].rx_elements))]
    bounds = pixel_delay_bounds(sc, grid, pairs)
    assert bounds.shape == (2, len(table))
    assert bounds.tolist() == reference_pixel_delay_bounds(sc, grid, pairs)


def outcome(simulate, *args, **kwargs):
    try:
        return simulate(*args, **kwargs)
    except ValueError as err:
        return str(err)


@settings(max_examples=60, deadline=None)
@given(scenes(), st.data())
def test_matches_channel_by_channel_reference(sc, data):
    grid = None
    if data.draw(st.booleans()):
        grid = ImageGrid(Vec2(-0.5, 9.5), (0.1, 0.1), (data.draw(st.integers(1, 11)), 11))
    window = suggest_window(sc, grid)
    assert window == reference_window(sc, grid)
    # shrink one edge past a response about half of the time: the first
    # truncated channel in row-major order is named
    lo, hi = window
    cut = data.draw(st.sampled_from([0.0] * 3 + [1.0, 2.0, 4.0])) * 2.5e-9
    if data.draw(st.booleans()):
        window = (lo + cut, hi)
    else:
        window = (lo, hi - cut)
    # about half of the time, synthesize a subset of the active pairs
    if data.draw(st.booleans()):
        active = sc.pairing.active_pairs()
        pairs = data.draw(st.lists(st.sampled_from(active), min_size=1, unique=True))
        sc = replace(sc, pairing=AssociationMatrix.from_pairs(sc.n_terminals, pairs))
    records = outcome(synthesize, sc, window)
    reference = outcome(reference_synthesize, sc, window)
    if isinstance(reference, str):
        assert records == reference
        assert "truncates" in reference
        return
    assert records.channels.tolist() == reference.channels.tolist()
    assert (records.t0, records.fs) == (reference.t0, reference.fs)
    assert np.array_equal(records.samples, reference.samples)
    assert records.samples.tobytes() == reference.samples.tobytes()  # zero signs too
