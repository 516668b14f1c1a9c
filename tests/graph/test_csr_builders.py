"""Tests for CSR construction and basic graph queries."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.errors import InvalidGraphError
from repro.graph import CSRGraph, builders, from_edge_list, from_edges, relabel_vertices
from repro.graph.csr import _PACK_VERTEX_LIMIT
from tests.core.test_sort import _SortSpy
from tests.twins import csr_by_lexsort

#: What ``from_edges`` builds, compared with its twin array for array.
CSR_ARRAYS = ("offsets", "neighbors", "edge_ids", "edge_src", "edge_dst")


def assert_matches_lexsort_twin(src, dst, num_vertices=None):
    """``from_edges`` and :func:`tests.twins.csr_by_lexsort` build the same
    five arrays, dtypes included."""
    graph = from_edges(src, dst, num_vertices=num_vertices)
    twin = csr_by_lexsort(np.asarray(src, dtype=np.int64),
                          np.asarray(dst, dtype=np.int64), graph.num_vertices)
    for name in CSR_ARRAYS:
        got, want = getattr(graph, name), getattr(twin, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    return graph


class TestFromEdges:
    def test_basic_shape(self, tiny_graph):
        assert tiny_graph.num_vertices == 5
        assert tiny_graph.num_edges == 5

    def test_degrees(self, tiny_graph):
        assert tiny_graph.degrees.tolist() == [2, 2, 3, 2, 1]

    def test_self_loops_removed(self):
        g = from_edge_list([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1

    def test_duplicates_collapse(self):
        g = from_edge_list([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_adjacency_sorted(self, tiny_graph):
        for v in range(tiny_graph.num_vertices):
            nbrs = tiny_graph.neighbors_of(v)
            assert (np.diff(nbrs) > 0).all()

    def test_isolated_vertices_allowed(self):
        g = from_edge_list([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0
        assert len(g.neighbors_of(4)) == 0

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(InvalidGraphError):
            from_edge_list([(0, 5)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(InvalidGraphError):
            from_edges(np.array([-1]), np.array([2]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(InvalidGraphError):
            from_edges(np.array([1, 2]), np.array([3]))

    def test_edge_ids_consistent_both_directions(self, tiny_graph):
        # Edge (0, 1) must carry the same id in both adjacency lists.
        g = tiny_graph
        for v in range(g.num_vertices):
            for nbr, eid in zip(g.neighbors_of(v), g.incident_edges_of(v)):
                u, w = g.edge_src[eid], g.edge_dst[eid]
                assert {u, w} == {v, nbr}

    def test_canonical_endpoints(self, tiny_graph):
        assert (tiny_graph.edge_src < tiny_graph.edge_dst).all()

    @given(
        hst.lists(
            hst.tuples(
                hst.integers(min_value=0, max_value=20),
                hst.integers(min_value=0, max_value=20),
            ),
            max_size=60,
        ),
        hst.one_of(hst.none(), hst.integers(min_value=21, max_value=25)),
    )
    @settings(max_examples=60, deadline=None)
    def test_csr_invariants(self, edges, num_vertices):
        src = np.array([u for u, __ in edges], dtype=np.int64)
        dst = np.array([v for __, v in edges], dtype=np.int64)
        g = assert_matches_lexsort_twin(src, dst, num_vertices)
        # CSR accounting: adjacency slot count = 2 * undirected edges.
        assert len(g.neighbors) == 2 * g.num_edges
        assert g.offsets[-1] == len(g.neighbors)
        # degree sum = 2|E|
        assert int(g.degrees.sum()) == 2 * g.num_edges
        # symmetry: u in N(v) <=> v in N(u)
        for v in range(g.num_vertices):
            for u in g.neighbors_of(v):
                assert v in g.neighbors_of(int(u))


#: The largest vertex id a test host can afford to build: every builder
#: allocates O(num_vertices) offsets, so ids at 2**31 - 1 itself would
#: take 16 GiB; what the packed keys need near the limit is only that
#: ``id << 32`` stays non-negative, which holds for every id below it.
_WIDE_ID = (1 << 20) - 1

#: name -> (src, dst, num_vertices): the messy inputs the normalization
#: must collapse exactly as the lexsort twin does.
NAMED_INPUTS = {
    "empty": ([], [], None),
    "empty-with-vertices": ([], [], 4),
    "all-self-loops": ([0, 3, 3, 1], [0, 3, 3, 1], None),
    "only-reverse-duplicates": ([0, 1, 2, 1, 3, 2], [1, 0, 1, 2, 2, 3], None),
    "isolated-trailing-vertices": ([2, 0, 1], [1, 2, 0], 9),
    "hub-holds-every-edge": (
        [7] * 12 + list(range(12)), list(range(12)) + [7] * 12, None),
    "wide-ids": ([_WIDE_ID, 0, _WIDE_ID - 1, 5, _WIDE_ID],
                 [0, _WIDE_ID, _WIDE_ID, _WIDE_ID - 1, 5], None),
}


@pytest.mark.parametrize("name", sorted(NAMED_INPUTS))
def test_named_inputs_match_the_lexsort_twin(name):
    src, dst, num_vertices = NAMED_INPUTS[name]
    assert_matches_lexsort_twin(src, dst, num_vertices)


def test_ids_at_the_pack_limit_are_rejected_before_any_allocation():
    top = _PACK_VERTEX_LIMIT - 1
    with pytest.raises(InvalidGraphError, match="packed edge-key limit"):
        from_edges(np.array([top]), np.array([0]))
    with pytest.raises(InvalidGraphError, match="packed edge-key limit"):
        from_edges(np.array([0]), np.array([1]), num_vertices=_PACK_VERTEX_LIMIT)


def test_a_csr_build_is_one_sort_and_one_argsort():
    """Work count, not time: on input with self loops, duplicates and
    reverse duplicates, ``from_edges`` calls no ``unique`` and no
    ``lexsort``, and sorts at most two arrays, none longer than the input
    edge list (the ``2m`` adjacency slots are placed, never sorted)."""
    rng = np.random.default_rng(27)
    src = rng.integers(0, 300, size=4000)
    dst = rng.integers(0, 300, size=4000)
    src[:50] = dst[:50]
    src, dst = np.concatenate([src, dst[::3]]), np.concatenate([dst, src[::3]])
    spy = _SortSpy()
    with mock.patch.object(builders, "np", spy):
        graph = from_edges(src, dst)
    assert "unique" not in spy.names and "lexsort" not in spy.names
    assert len(spy.sizes) <= 2 and max(spy.sizes) <= len(src)
    assert len(graph.neighbors) > len(src)  # so 2m slots are never sorted
    assert_matches_lexsort_twin(src, dst)


class TestAdjacencyQueries:
    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(0, 4)

    def test_has_edges_vectorized(self, tiny_graph):
        u = np.array([0, 0, 2, 4])
        v = np.array([1, 4, 3, 3])
        assert tiny_graph.has_edges(u, v).tolist() == [True, False, True, True]

    def test_has_edges_empty_graph(self):
        g = from_edge_list([], num_vertices=2)
        assert g.has_edges(np.array([0]), np.array([1])).tolist() == [False]

    def test_edge_endpoints(self, tiny_graph):
        src, dst = tiny_graph.edge_endpoints(np.arange(tiny_graph.num_edges))
        assert sorted(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
        ]

    def test_label_queries(self, tiny_graph):
        assert tiny_graph.label_of(1) == 2
        assert tiny_graph.num_labels == 3

    def test_storage_bytes_positive(self, tiny_graph):
        assert tiny_graph.storage_bytes() > 0


class TestValidation:
    def test_bad_offsets_rejected(self):
        with pytest.raises(InvalidGraphError):
            CSRGraph(
                offsets=np.array([0, 2]),
                neighbors=np.array([1]),  # offsets say 2 slots
                edge_ids=np.array([0]),
                edge_src=np.array([0]),
                edge_dst=np.array([1]),
            )

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(InvalidGraphError):
            CSRGraph(
                offsets=np.array([0, 2, 1, 2]),
                neighbors=np.array([1, 2]),
                edge_ids=np.array([0, 1]),
                edge_src=np.array([0, 0]),
                edge_dst=np.array([1, 2]),
            )

    def test_unsorted_adjacency_list_rejected(self):
        # Path 1 - 0 - 2 with N(0) written as [2, 1].
        with pytest.raises(InvalidGraphError, match="vertex 0"):
            CSRGraph(
                offsets=np.array([0, 2, 3, 4]),
                neighbors=np.array([2, 1, 0, 0]),
                edge_ids=np.array([1, 0, 0, 1]),
                edge_src=np.array([0, 0]),
                edge_dst=np.array([1, 2]),
            )

    def test_duplicated_neighbour_rejected(self):
        # A triangle whose vertex 1 lists neighbour 2 twice (and 0 never):
        # this used to build, and to count 0 triangles.
        with pytest.raises(InvalidGraphError, match="vertex 1"):
            CSRGraph(
                offsets=np.array([0, 2, 4, 6]),
                neighbors=np.array([1, 2, 2, 2, 0, 1]),
                edge_ids=np.array([0, 1, 2, 2, 1, 2]),
                edge_src=np.array([0, 0, 1]),
                edge_dst=np.array([1, 2, 2]),
            )

    def test_sorted_lists_with_empty_ones_between_accepted(self):
        # Vertices 1 and 3 are isolated, so consecutive slots belong to
        # non-adjacent owners and the neighbour ids *fall* across the
        # boundary (N(0) = [2, 4], N(2) = [0, 4]): only order within a
        # list is checked.
        g = CSRGraph(
            offsets=np.array([0, 2, 2, 4, 4, 6]),
            neighbors=np.array([2, 4, 0, 4, 0, 2]),
            edge_ids=np.array([0, 1, 0, 2, 1, 2]),
            edge_src=np.array([0, 0, 2]),
            edge_dst=np.array([2, 4, 4]),
        )
        assert g.adjacency_keys.tolist() == [
            (u << 32) | v for u in range(5) for v in g.neighbors_of(u).tolist()
        ]
        assert g.has_edges(np.array([0, 4, 1, 2]), np.array([4, 2, 0, 3])).tolist() == [
            True, True, False, False]

    def test_label_length_mismatch_rejected(self, tiny_graph):
        with pytest.raises(InvalidGraphError):
            relabel_vertices(tiny_graph, np.array([1, 2]))

    def test_relabel(self, tiny_graph):
        g2 = relabel_vertices(tiny_graph, np.zeros(5, dtype=np.int64))
        assert g2.num_labels == 1
        assert g2.num_edges == tiny_graph.num_edges
