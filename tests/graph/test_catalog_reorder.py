"""Tests for the pattern catalog and graph reordering."""

import numpy as np
import pytest

from repro.core import Gamma
from repro.algorithms import count_kcliques, match_pattern, motif_count
from repro.errors import InvalidGraphError
from repro.graph import (
    PatternCatalog,
    Pattern,
    bfs_order,
    canonical_code_int,
    connected_shapes,
    default_catalog,
    degree_order,
    diamond,
    kronecker,
    reorder,
    shape_name,
    sm_query,
    star,
    triangle,
)
from tests.twins import crossed_catalog


class TestConnectedShapes:
    def test_counts_match_graph_atlas(self):
        """Known counts of connected graphs on <= 5 vertices: 1 with 1
        edge, 1 with 2, 3 with 3, 5 with 4, and 6 with 5 edges (the five
        5-vertex unicyclic graphs plus the diamond)."""
        by_edges = {}
        for edges in connected_shapes(max_vertices=5, max_edges=5):
            by_edges.setdefault(len(edges), 0)
            by_edges[len(edges)] += 1
        assert by_edges[1] == 1
        assert by_edges[2] == 1
        assert by_edges[3] == 3   # triangle, path-3, star-3
        assert by_edges[4] == 5   # square, tailed-tri, path-4, star-4, fork
        assert by_edges[5] == 6

    def test_all_shapes_distinct(self):
        shapes = connected_shapes(5, 4)
        codes = {canonical_code_int(s, [0] * (max(max(e) for e in s) + 1))
                 for s in shapes}
        assert len(codes) == len(shapes)

    def test_shape_names(self):
        assert shape_name([(0, 1), (1, 2), (0, 2)]) == "triangle"
        assert shape_name([(0, 1), (0, 2)]) == "wedge"
        assert shape_name([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]) == "diamond"
        assert shape_name([(0, 1), (1, 2), (2, 3), (3, 0)]) == "square"


class TestPatternCatalog:
    def test_register_and_lookup(self):
        catalog = PatternCatalog()
        code = catalog.register(triangle())
        assert catalog.name_of(code) == "triangle"
        assert code in catalog

    def test_unknown_code_fallback(self):
        catalog = PatternCatalog()
        assert catalog.name_of(12345).startswith("pattern:")

    def test_register_shapes_unlabeled(self):
        """The unlabeled shapes up to 4 vertices / 3 edges, each named on
        demand as the crossed catalog names it."""
        named = crossed_catalog((0,), max_vertices=4, max_edges=3)
        assert len(named) == 5  # edge, wedge, triangle, path-3, star-3
        catalog = default_catalog(1)
        assert {catalog.name_of(code) for code in named} == {
            "edge", "wedge", "triangle", "path-3", "star-3"}
        assert len(catalog) == 0  # nothing registered up front

    def test_labeled_cross_product_dedups_isomorphic(self):
        named = crossed_catalog((0, 1), max_vertices=3, max_edges=1)
        # one edge with 2 labels: {00, 01, 11} -> 3 classes, not 4
        assert len(named) == 3
        assert sorted(default_catalog(2).name_of(c) for c in named) == [
            "edge", "edge[0,1]", "edge[1,1]"]

    def test_describe_sorted_by_support(self):
        catalog = default_catalog(1)
        with Gamma(star(5)) as engine:
            m = motif_count(engine, 2)
        rows = catalog.describe(m.histogram)
        assert rows[0][0] == "wedge"
        assert rows[0][1] == 10  # C(5,2)

    def test_motif_census_named(self):
        catalog = default_catalog(1)
        g = kronecker(7, 4, seed=2)
        with Gamma(g) as engine:
            m = motif_count(engine, 3)
        names = {name for name, __ in catalog.describe(m.histogram)}
        assert names <= {"triangle", "path-3", "star-3"}


class TestReorder:
    @pytest.fixture
    def graph(self):
        return kronecker(8, 5, seed=9, labels=3)

    def test_degree_order_places_hubs_first(self, graph):
        reordered = reorder(graph, "degree")
        degs = reordered.degrees
        # New vertex 0 is the old max-degree hub.
        assert degs[0] == graph.max_degree

    def test_permutations_are_bijections(self, graph):
        for fn in (degree_order, bfs_order):
            perm = fn(graph)
            assert sorted(perm.tolist()) == list(range(graph.num_vertices))

    def test_structure_preserved(self, graph):
        for order in ("degree", "bfs"):
            reordered = reorder(graph, order)
            assert reordered.num_edges == graph.num_edges
            assert sorted(reordered.degrees.tolist()) == sorted(
                graph.degrees.tolist()
            )

    def test_pattern_counts_invariant(self, graph):
        with Gamma(graph) as engine:
            base = count_kcliques(engine, 3).cliques
        for order in ("degree", "bfs"):
            with Gamma(reorder(graph, order)) as engine:
                assert count_kcliques(engine, 3).cliques == base

    def test_labels_follow_vertices(self, graph):
        reordered = reorder(graph, "degree")
        perm = degree_order(graph)
        assert (reordered.labels[perm] == graph.labels).all()

    def test_unknown_order_rejected(self, graph):
        with pytest.raises(InvalidGraphError):
            reorder(graph, "alphabetical")

    def test_bfs_root_override(self, graph):
        perm = bfs_order(graph, root=5)
        assert perm[5] == 0


class TestSymmetryBreaking:
    def test_constraints_eliminate_automorphisms(self):
        # enforcing the constraints leaves exactly one representative per
        # automorphism orbit: |embeddings| == |unique subgraphs|
        from repro.graph import clique_graph, count_subgraphs

        g = kronecker(7, 5, seed=4)
        for pat in (triangle(), diamond(), sm_query(3)):
            with Gamma(g) as engine:
                result = match_pattern(engine, pat, symmetry_breaking=True)
            assert result.embeddings == count_subgraphs(g, pat)
            assert result.unique_subgraphs == result.embeddings

    def test_identity_only_group_has_no_constraints(self):
        assert sm_query(1).symmetry_breaking_constraints() == []

    def test_triangle_constraints_total_order(self):
        assert triangle().symmetry_breaking_constraints() == [
            (0, 1), (0, 2), (1, 2)
        ]

    def test_shrinks_intermediate_tables(self):
        g = kronecker(8, 6, seed=3)
        peaks = {}
        for sb in (False, True):
            with Gamma(g) as engine:
                match_pattern(engine, triangle(), symmetry_breaking=sb)
                peaks[sb] = engine.peak_host_bytes
        assert peaks[True] < peaks[False]


class TestPatternOf:
    def test_roundtrip_registered_pattern(self):
        catalog = PatternCatalog()
        code = catalog.register(sm_query(1))
        rebuilt = catalog.pattern_of(code)
        assert rebuilt.labels == sm_query(1).labels
        assert set(rebuilt.edges) == set(sm_query(1).edges)

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError):
            PatternCatalog().pattern_of(42)

    def test_mine_then_rematch(self):
        """FPM discovers a pattern; the catalog rebuilds it; symmetry-broken
        SM re-counts exactly the FPM support."""
        from repro.algorithms import frequent_pattern_mining, match_pattern
        from repro.graph import default_catalog

        g = kronecker(8, 6, seed=9, labels=3)
        catalog = default_catalog(3)
        with Gamma(g) as engine:
            fpm = frequent_pattern_mining(engine, 2, 5)
        for code, support in sorted(fpm.patterns.items())[:4]:
            pattern = catalog.pattern_of(code)
            with Gamma(g) as engine:
                result = match_pattern(engine, pattern, symmetry_breaking=True)
            assert result.unique_subgraphs == support
