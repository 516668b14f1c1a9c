"""Tests for the paper-literal Fig. 3 interface: Algorithms 1 and 2
transcribed line by line."""

import numpy as np
import pytest

from repro.core import (
    Constraint,
    Gamma,
    PatternTable,
    aggregation,
    edge_extension,
    filtering,
    output_results,
    vertex_extension,
)
from repro.core.embedding_table import EmbeddingTable
from repro.errors import ExecutionError
from repro.graph import count_isomorphisms, sm_query
from repro.algorithms import frequent_pattern_mining


class TestAlgorithm1:
    """WOJ subgraph matching, written as the paper writes it."""

    def test_woj_transcription(self, random_labeled_graph):
        G_q = sm_query(1)
        delta_v = G_q.matching_order()          # line 1
        position = {qv: i for i, qv in enumerate(delta_v)}

        with Gamma(random_labeled_graph) as gamma:
            ET = gamma.new_vertex_table()
            gamma.seed_vertices(ET, label=G_q.label(delta_v[0]))  # line 2
            for step in range(1, len(delta_v)):                   # line 3
                v = delta_v[step]
                anchors = [position[w] for w in G_q.neighbors(v)
                           if position[w] < step]
                vertex_extension(ET, anchors, label=G_q.label(v))  # line 4
                # line 5: Filtering(ET, Constraint=G_q) — verified on the
                # fully matched table below (extension already pruned).
            removed = filtering(ET, constraint=Constraint(query_graph=G_q))
            result = output_results(table=ET)                      # line 7

        assert removed == 0  # extension-time pruning was already exact
        assert len(result) == count_isomorphisms(random_labeled_graph, G_q)

    def test_query_filter_actually_filters(self, random_labeled_graph):
        """Grow an unconstrained table, then let the Fig. 3 Filtering
        enforce the query graph post hoc — same count as pushdown."""
        G_q = sm_query(1)
        delta_v = G_q.matching_order()
        position = {qv: i for i, qv in enumerate(delta_v)}
        with Gamma(random_labeled_graph) as gamma:
            ET = gamma.new_vertex_table()
            gamma.seed_vertices(ET)
            for step in range(1, len(delta_v)):
                v = delta_v[step]
                anchors = [position[w] for w in G_q.neighbors(v)
                           if position[w] < step]
                vertex_extension(ET, anchors)  # no label pushdown
            filtering(ET, constraint=Constraint(query_graph=G_q))
            count = ET.num_embeddings
        assert count == count_isomorphisms(random_labeled_graph, G_q)


class TestAlgorithm2:
    """FPM, written as the paper writes it."""

    def test_fpm_transcription(self, random_labeled_graph):
        sup_min = 4
        iterations = 2
        with Gamma(random_labeled_graph) as gamma:
            ET = gamma.new_edge_table()
            gamma.seed_edges(ET)                      # line 1
            PT = PatternTable()
            for i in range(1, iterations + 1):        # line 2
                aggregation(ET, PT)                   # line 3
                filtering(                            # line 4
                    ET, pattern_table=PT,
                    constraint=Constraint(min_support=sup_min),
                )
                if i < iterations:                    # line 5
                    edge_extension(ET)                # line 6
                    gamma.dedup(ET)
            result = output_results(pattern_table=PT)  # line 8

        with Gamma(random_labeled_graph) as gamma:
            reference = frequent_pattern_mining(gamma, iterations, sup_min)
        assert result == reference.patterns

    def test_mni_map_function(self, random_labeled_graph):
        with Gamma(random_labeled_graph) as gamma:
            ET = gamma.new_edge_table()
            gamma.seed_edges(ET)
            PT = PatternTable()
            aggregation(ET, PT, map_function="canonical-mni")
            assert len(PT) > 0


class TestValidation:
    def test_orphan_table_rejected(self, platform):
        table = EmbeddingTable(platform)
        table.seed(np.array([0]))
        with pytest.raises(ExecutionError):
            vertex_extension(table, [0])

    def test_constraint_exactly_one_kind(self):
        with pytest.raises(ExecutionError):
            Constraint()
        with pytest.raises(ExecutionError):
            Constraint(query_graph=sm_query(1), min_support=2)

    def test_unknown_map_function(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            ET = gamma.new_edge_table()
            gamma.seed_edges(ET)
            with pytest.raises(ExecutionError):
                aggregation(ET, PatternTable(), map_function="md5")

    def test_filtering_needs_constraint_or_mask(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            ET = gamma.new_vertex_table()
            gamma.seed_vertices(ET)
            with pytest.raises(ExecutionError):
                filtering(ET)

    def test_output_results_empty(self):
        with pytest.raises(ExecutionError):
            output_results()

    def test_output_pattern_table_alone(self):
        pt = PatternTable()
        pt.merge(np.array([1]), np.array([2]))
        assert output_results(pattern_table=pt) == {1: 2}

    def test_mask_path(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            ET = gamma.new_vertex_table()
            gamma.seed_vertices(ET)
            removed = filtering(ET, keep_mask=np.array([1, 0, 0, 0, 0], bool))
            assert removed == 4
