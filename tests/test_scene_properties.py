"""Property tests of ``AssociationMatrix.from_pairs``: it rebuilds any 0/1
pairing from its active pairs, and its active pairs are the distinct
requested pairs in row-major order; and of the one channel index,
``pair_rows`` and ``element_rows``, against nested per-pair loops."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from netrad.scene import AssociationMatrix, Scenario, Terminal, Vec2, channel_table, element_rows, pair_rows


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    return n, AssociationMatrix(np.array(bits).reshape(n, n))


@given(matrices())
def test_rebuilds_matrix_from_its_active_pairs(case):
    n, m = case
    assert AssociationMatrix.from_pairs(n, m.active_pairs()) == m


@st.composite
def pair_lists(draw):
    n = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=3 * n * n))


@given(pair_lists())
def test_active_pairs_are_the_distinct_requests_sorted(case):
    n, pairs = case
    assert AssociationMatrix.from_pairs(n, pairs).active_pairs() == sorted(set(pairs))


@st.composite
def channel_tables(draw):
    """1-4 terminals with 0-2 Tx and 0-3 Rx elements each, and some of
    their pairs in any order: terminals without Tx or Rx elements give
    pairs without rows, and some terminals may take part in no pair."""
    counts = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=4))
    terminals = tuple(
        Terminal(l, Vec2(l, 0.0), [[l, 0.1 * n] for n in range(n_tx)],
                 [[l, -0.1 * m - 1.0] for m in range(n_rx)])
        for l, (n_tx, n_rx) in enumerate(counts))
    every = [(l, k) for l in range(len(counts)) for k in range(len(counts))]
    pairs = draw(st.permutations(every))[:draw(st.integers(0, len(every)))]
    return Scenario(terminals=terminals, targets=(), f0=28e9, bandwidth=500e6), pairs


@given(channel_tables())
def test_pair_rows_and_element_rows_equal_nested_loops(case):
    sc, pairs = case
    terms = sc.terminals
    tx_stack = [e for term in terms for e in term.tx_elements.tolist()]
    rx_stack = [e for term in terms for e in term.rx_elements.tolist()]
    starts, tx_rows, rx_rows = [], [], []
    for l, k in pairs:
        if len(terms[l].tx_elements) and len(terms[k].rx_elements):
            starts.append(((l, k), len(tx_rows)))
        for n in range(len(terms[l].tx_elements)):
            for m in range(len(terms[k].rx_elements)):
                tx_rows.append(sum(len(term.tx_elements) for term in terms[:l]) + n)
                rx_rows.append(sum(len(term.rx_elements) for term in terms[:k]) + m)
    channels = channel_table(sc, pairs)
    found, first = pair_rows(channels)
    assert list(zip(map(tuple, found.tolist()), first.tolist())) == starts
    tx, rx, n, m = element_rows(sc, channels)
    assert (tx.tolist(), rx.tolist()) == (tx_stack, rx_stack)
    assert (n.tolist(), m.tolist()) == (tx_rows, rx_rows)
    assert tx.shape == (len(tx_stack), 2) and rx.shape == (len(rx_stack), 2)
