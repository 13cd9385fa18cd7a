"""Property tests of ``AssociationMatrix.from_pairs``: it rebuilds any 0/1
pairing from its active pairs, and its active pairs are the distinct
requested pairs in row-major order."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from netrad.scene import AssociationMatrix


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
