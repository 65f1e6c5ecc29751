"""Incidence-construction tests for the oracle's spatio-temporal hypergraph."""

import numpy as np
import pytest

from oracle import incidence, spatial_only, temporal_only


def test_single_node_graph():
    H = incidence(1, 1)
    assert np.array_equal(H, [[1.0, 1.0]])


def test_production_sizes():
    assert incidence(6, 5).shape == (30, 5 + 6)


def test_node_incidence_columns():
    H = incidence(2, 3)
    r = 2 * 2 + 1                    # row tau*n + i of intersection 1 at step 2
    cols = np.nonzero(H[r])[0]
    assert list(cols) == [2, 3 + 1]  # spatial column tau=2, temporal column t+i


def test_member_counts_and_degrees():
    for n in range(1, 9):
        for t in range(1, 9):
            H = incidence(n, t)
            col = H.sum(axis=0)
            assert np.all(col[:t] == n)       # spatial columns
            assert np.all(col[t:] == t)       # temporal columns
            assert np.all(H.sum(axis=1) == 2)
            # exactly one incidence inside each column family per node
            assert np.all(H[:, :t].sum(axis=1) == 1)
            assert np.all(H[:, t:].sum(axis=1) == 1)


def test_edge_unions_cover_nodes():
    n, t = 4, 3
    H = incidence(n, t)
    spatial = set(np.nonzero(H[:, :t])[0].tolist())
    temporal = set(np.nonzero(H[:, t:])[0].tolist())
    assert spatial == temporal == set(range(n * t))


def test_rejects_zero_sizes():
    with pytest.raises(ValueError):
        incidence(0, 3)
    with pytest.raises(ValueError):
        incidence(3, 0)


def test_family_selectors():
    H = incidence(3, 4)
    assert spatial_only(H, 4).shape == (12, 4)
    assert temporal_only(H, 4).shape == (12, 3)
    assert np.array_equal(np.hstack([spatial_only(H, 4), temporal_only(H, 4)]), H)
