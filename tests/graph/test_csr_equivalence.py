"""Bitset-vs-binary-search equivalence for `CSRGraph` adjacency probes.

`CSRGraph._adjacency_bitset` answers a `has_edges` query with one byte
load instead of a binary search over the packed edge keys.  A graph whose
`V**2` bits exceed `_BITSET_MAX_BYTES` keeps the binary search, so the two
must answer every probe identically — including self-loops-absent,
reversed endpoints, and vertices with no edges at all.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.graph import csr, from_edges
from tests.twins import straight_line

N_VERTICES = 24


@hst.composite
def graph_and_probes(draw):
    n_edges = draw(hst.integers(min_value=0, max_value=40))
    src = draw(
        hst.lists(
            hst.integers(min_value=0, max_value=N_VERTICES - 1),
            min_size=n_edges, max_size=n_edges,
        )
    )
    dst = draw(
        hst.lists(
            hst.integers(min_value=0, max_value=N_VERTICES - 1),
            min_size=n_edges, max_size=n_edges,
        )
    )
    n_probes = draw(hst.integers(min_value=0, max_value=64))
    pu = draw(
        hst.lists(
            hst.integers(min_value=0, max_value=N_VERTICES - 1),
            min_size=n_probes, max_size=n_probes,
        )
    )
    pv = draw(
        hst.lists(
            hst.integers(min_value=0, max_value=N_VERTICES - 1),
            min_size=n_probes, max_size=n_probes,
        )
    )
    return src, dst, pu, pv


def _answers(src, dst, pu, pv):
    # A fresh graph per call: the bitset is cached per instance, and the
    # point is to compare the two build-and-probe paths end to end.
    edges = [(u, v) for u, v in zip(src, dst) if u != v]
    graph = from_edges(
        np.array([u for u, __ in edges], dtype=np.int64),
        np.array([v for __, v in edges], dtype=np.int64),
        num_vertices=N_VERTICES,
    )
    return graph.has_edges(
        np.array(pu, dtype=np.int64), np.array(pv, dtype=np.int64)
    )


class TestHasEdgesEquivalence:
    @given(graph_and_probes())
    @settings(max_examples=80, deadline=None)
    def test_bitset_matches_binary_search(self, case):
        """The same graph under and over the bitset cap (lowered to just
        below its 24*24 bits), and a Python set of its edges."""
        src, dst, pu, pv = case
        fast = _answers(src, dst, pu, pv)
        cap = (N_VERTICES * N_VERTICES - 1) // 8
        with mock.patch.object(csr, "_BITSET_MAX_BYTES", cap), \
                mock.patch.object(np.bitwise_or, "at", side_effect=AssertionError):
            ref = _answers(src, dst, pu, pv)
        np.testing.assert_array_equal(fast, ref)
        edges = {(u, v) for u, v in zip(src, dst) if u != v}
        edges |= {(v, u) for u, v in edges}
        assert fast.tolist() == [(u, v) in edges for u, v in zip(pu, pv)]

    def test_reference_pipeline_builds_no_bitset(self):
        """On the straight-line stack a fresh graph binary-searches; the
        shipped stack builds the bitset on first probe."""
        graph = from_edges(
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            num_vertices=4,
        )
        with straight_line():
            assert graph._adjacency_bitset() is None
            assert bool(graph.has_edge(0, 1))
        assert graph._adjacency_bitset() is not None

    def test_bitset_cap_is_inclusive(self):
        graph = from_edges(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
            num_vertices=8,
        )
        with mock.patch.object(csr, "_BITSET_MAX_BYTES", 7):  # 56 < 64 bits
            assert graph._adjacency_bitset() is None
        with mock.patch.object(csr, "_BITSET_MAX_BYTES", 8):
            assert graph._adjacency_bitset() is not None
