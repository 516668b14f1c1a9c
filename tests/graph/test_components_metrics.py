"""Tests for connected components and graph statistics."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.graph import (
    CSRGraph,
    clique_graph,
    clustering_coefficient,
    component_sizes,
    connected_components,
    cycle_graph,
    from_edge_list,
    from_networkx,
    kronecker,
    largest_component_fraction,
    num_components,
    profile,
    star,
    triangle_count_exact,
    wedge_count,
)
from repro.graph import metrics


class TestConnectedComponents:
    def test_single_component(self):
        g = cycle_graph(6)
        assert num_components(g) == 1
        assert (connected_components(g) == 0).all()

    def test_disjoint_components(self):
        g = from_edge_list([(0, 1), (2, 3), (4, 5)], num_vertices=7)
        labels = connected_components(g)
        assert num_components(g) == 4  # 3 edges + isolated vertex 6
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert labels[6] == 6

    def test_component_sizes_sorted(self):
        g = from_edge_list([(0, 1), (1, 2), (3, 4)], num_vertices=5)
        assert component_sizes(g).tolist() == [3, 2]

    def test_giant_fraction(self):
        g = from_edge_list([(0, 1), (1, 2), (3, 4)], num_vertices=6)
        assert largest_component_fraction(g) == pytest.approx(0.5)

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=4)
        assert num_components(g) == 4

    @given(hst.integers(min_value=0, max_value=400),
           hst.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx(self, m, seed):
        rng = np.random.default_rng(seed)
        n = 50
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        g = from_edge_list(list(zip(src.tolist(), dst.tolist())),
                           num_vertices=n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        assert num_components(g) == nx.number_connected_components(G)


class TestMetrics:
    def test_triangle_count_oracles(self):
        G = nx.gnm_random_graph(80, 400, seed=3)
        g = from_networkx(G)
        assert triangle_count_exact(g) == sum(nx.triangles(G).values()) // 3

    def test_triangle_count_chunked_path(self):
        """The count is the same whatever the slot budget of a batch, and
        no batch probes more than the budget unless it is one edge's."""
        g = kronecker(9, 8, seed=2)
        G = nx.Graph(list(g.edges()))
        full = triangle_count_exact(g)
        assert full == sum(nx.triangles(G).values()) // 3
        widest = max(int((g.neighbors_of(a) > b).sum()) for a, b in g.edges())
        probes = []
        has_edges = CSRGraph.has_edges

        def spy(graph, a, b):
            probes.append(len(a))
            return has_edges(graph, a, b)

        for budget in (1, 7, 300):
            probes.clear()
            with mock.patch.object(metrics, "_TRIANGLE_BATCH_SLOTS", budget), \
                    mock.patch.object(CSRGraph, "has_edges", spy):
                assert triangle_count_exact(g) == full
            assert 1 < len(probes) and max(probes) <= max(budget, widest)
        assert triangle_count_exact(clique_graph(8)) == 56
        assert triangle_count_exact(star(5)) == 0

    def test_wedges(self):
        assert wedge_count(star(5)) == 10
        assert wedge_count(cycle_graph(5)) == 5

    def test_clustering_extremes(self):
        assert clustering_coefficient(clique_graph(6)) == pytest.approx(1.0)
        assert clustering_coefficient(cycle_graph(8)) == 0.0
        assert clustering_coefficient(star(4)) == 0.0

    def test_profile_fields(self):
        g = kronecker(8, 6, seed=7, labels=4)
        p = profile(g)
        assert p.num_vertices == g.num_vertices
        assert p.num_edges == g.num_edges
        assert p.max_degree == g.max_degree
        assert 0 <= p.clustering <= 1
        assert 0 < p.giant_component_fraction <= 1
        assert p.degree_second_moment >= 2 * p.num_edges
        assert 0 < p.top_label_share <= 1

    def test_profile_as_dict_printable(self):
        p = profile(star(3))
        d = p.as_dict()
        assert d["vertices"] == 4
        assert isinstance(d["clustering"], str)
