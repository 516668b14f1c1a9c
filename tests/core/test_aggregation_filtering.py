"""Tests for aggregation, pattern table and filtering primitives."""

import numpy as np
import pytest

from repro.core import (
    EDGE,
    EmbeddingTable,
    GammaResidence,
    MinSupport,
    PatternTable,
    aggregate_edge_table,
    dedup_embeddings,
    embedding_set_keys,
    filter_by_support,
    filter_rows,
)
from repro.errors import ExecutionError
from repro.graph import QuickPatternEncoder
from repro.gpusim import make_platform


def edge_table_for(graph, platform=None):
    platform = platform or make_platform()
    residence = GammaResidence(platform, graph, buffer_pages=32)
    table = EmbeddingTable(platform, EDGE)
    table.seed(np.arange(graph.num_edges))
    return platform, residence, table


class TestPatternTable:
    def test_merge_accumulates(self):
        pt = PatternTable()
        pt.merge(np.array([10, 20]), np.array([1, 2]))
        pt.merge(np.array([20, 30]), np.array([3, 4]))
        assert pt.as_dict() == {10: 1, 20: 5, 30: 4}

    def test_merge_rejects_duplicates(self):
        pt = PatternTable()
        with pytest.raises(ValueError):
            pt.merge(np.array([1, 1]), np.array([1, 1]))

    def test_merge_rejects_misaligned(self):
        with pytest.raises(ValueError):
            PatternTable().merge(np.array([1]), np.array([1, 2]))

    def test_support_of(self):
        pt = PatternTable()
        pt.merge(np.array([5, 9]), np.array([3, 7]))
        out = pt.support_of(np.array([9, 5, 11]))
        assert out.tolist() == [7, 3, 0]

    def test_support_of_empty_table(self):
        assert PatternTable().support_of(np.array([1, 2])).tolist() == [0, 0]

    def test_prune_below(self):
        pt = PatternTable()
        pt.merge(np.array([1, 2, 3]), np.array([5, 2, 9]))
        removed = pt.prune_below(5)
        assert removed == 1
        assert pt.as_dict() == {1: 5, 3: 9}

    def test_frequent_returns_copy(self):
        pt = PatternTable()
        pt.merge(np.array([1, 2]), np.array([1, 10]))
        freq = pt.frequent(5)
        assert freq.as_dict() == {2: 10}
        assert len(pt) == 2  # original untouched

    def test_iteration(self):
        pt = PatternTable()
        pt.merge(np.array([4, 2]), np.array([1, 2]))
        assert list(pt) == [(2, 2), (4, 1)]


class TestAggregation:
    def test_length1_patterns_by_label_pair(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        pt = PatternTable()
        encoder = QuickPatternEncoder()
        codes = aggregate_edge_table(
            platform, residence, table, encoder, pt
        )
        assert len(codes) == tiny_graph.num_edges
        # labels [0,2,1,0,2]: edges by endpoint-label multiset:
        # (0,1): {0,2}; (0,2): {0,1}; (1,2): {2,1}; (2,3): {1,0}; (3,4): {0,2}
        assert pt.as_dict() and sum(pt.supports) == 5
        assert sorted(pt.supports.tolist()) == [1, 2, 2]

    def test_symmetric_edges_share_pattern(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        pt = PatternTable()
        codes = aggregate_edge_table(
            platform, residence, table, QuickPatternEncoder(), pt
        )
        # (0,1) labels {0,2} and (3,4) labels {0,2} -> same code, despite
        # opposite orientation in edge storage.
        by_edge = dict(enumerate(codes.tolist()))
        assert by_edge[0] == by_edge[4]

    def test_empty_table(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        table.compact(np.zeros(tiny_graph.num_edges, dtype=bool))
        pt = PatternTable()
        codes = aggregate_edge_table(
            platform, residence, table, QuickPatternEncoder(), pt
        )
        assert len(codes) == 0
        assert len(pt) == 0

    def test_cpu_flag_charges_cpu(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        pt = PatternTable()
        before = platform.clock.time_in("cpu_compute")
        aggregate_edge_table(
            platform, residence, table, QuickPatternEncoder(), pt, cpu=True
        )
        assert platform.clock.time_in("cpu_compute") > before


class TestDedup:
    def test_embedding_set_keys_order_insensitive(self):
        keys = embedding_set_keys(np.array([[3, 1], [1, 3], [1, 2]]))
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]

    def test_dedup_removes_reordered_duplicates(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        # extend: every adjacent pair appears twice (once from each edge)
        from repro.core import ExtensionEngine, MemoryPool, make_write_strategy

        pool = MemoryPool(platform, 1 << 20)
        engine = ExtensionEngine(
            platform, residence, make_write_strategy("dynamic", platform, pool)
        )
        engine.extend_edges(table)
        n_before = table.num_embeddings
        removed = dedup_embeddings(platform, table)
        assert removed == n_before // 2
        keys = embedding_set_keys(table.materialize())
        assert len(np.unique(keys)) == len(keys)

    def test_dedup_empty(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        table.compact(np.zeros(tiny_graph.num_edges, dtype=bool))
        assert dedup_embeddings(platform, table) == 0


class TestFiltering:
    def test_filter_rows_compacts(self, tiny_graph):
        platform, __, table = edge_table_for(tiny_graph)
        removed = filter_rows(table, np.array([1, 0, 1, 0, 1], dtype=bool))
        assert removed == 2
        assert table.num_embeddings == 3

    def test_filter_rows_no_compaction_keeps_bytes(self, tiny_graph):
        platform, __, table = edge_table_for(tiny_graph)
        used = platform.host_used
        filter_rows(table, np.zeros(5, dtype=bool), compact=False)
        assert table.num_embeddings == 0
        assert platform.host_used == used  # holes not reclaimed

    def test_min_support_validation(self):
        with pytest.raises(ExecutionError):
            MinSupport(0)

    def test_filter_by_support(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        pt = PatternTable()
        codes = aggregate_edge_table(
            platform, residence, table, QuickPatternEncoder(), pt
        )
        removed = filter_by_support(
            platform, table, codes, pt, MinSupport(2)
        )
        assert removed == 1            # the single support-1 edge pattern
        assert table.num_embeddings == 4
        assert (pt.supports >= 2).all()

    def test_filter_by_support_length_mismatch(self, tiny_graph):
        platform, residence, table = edge_table_for(tiny_graph)
        with pytest.raises(ExecutionError):
            filter_by_support(
                platform, table, np.array([1]), PatternTable(), MinSupport(1)
            )


def _aggregated(graph):
    platform, residence, table = edge_table_for(graph)
    pt = PatternTable()
    codes = aggregate_edge_table(platform, residence, table,
                                 QuickPatternEncoder(), pt)
    return platform, table, pt, codes


class TestSupportFilterGathers:
    """Aggregation leaves its codes' grouping on the last column; the
    support filter handed the same array gathers through it, any other
    codes take the per-row lookup, and both keep the same rows."""

    def test_codes_ride_on_the_last_column(self, tiny_graph):
        __, table, __, codes = _aggregated(tiny_graph)
        noted = table.columns[-1].codes
        assert noted.values is codes
        np.testing.assert_array_equal(
            noted.groups.distinct[noted.groups.index], codes)
        with pytest.raises(ValueError):
            codes[0] = 1  # frozen: the identity check cannot be fooled

    @pytest.mark.parametrize("handed", ["returned", "copy", "list"])
    @pytest.mark.parametrize("compact", [True, False])
    def test_same_rows_either_way(self, tiny_graph, handed, compact):
        platform, table, pt, codes = _aggregated(tiny_graph)
        arg = {"returned": codes, "copy": codes.copy(),
               "list": codes.tolist()}[handed]
        removed = filter_by_support(platform, table, arg, pt, MinSupport(2),
                                    compact=compact)
        assert removed == 1
        assert table.num_embeddings == 4
        assert table.columns[-1].codes is None  # the column was replaced

    def test_bill_does_not_depend_on_the_route(self, tiny_graph):
        snapshots = []
        for make_copy in (False, True):
            platform, table, pt, codes = _aggregated(tiny_graph)
            filter_by_support(platform, table,
                              codes.copy() if make_copy else codes, pt,
                              MinSupport(2))
            snapshots.append((platform.clock.snapshot(),
                              platform.counters.snapshot(),
                              table.materialize().tolist()))
        assert snapshots[0] == snapshots[1]

    def test_next_level_drops_the_codes(self, tiny_graph):
        from repro.core import ExtensionEngine, MemoryPool, make_write_strategy

        platform, residence, table = edge_table_for(tiny_graph)
        codes = aggregate_edge_table(platform, residence, table,
                                     QuickPatternEncoder(), PatternTable())
        seeded = table.columns[-1]
        engine = ExtensionEngine(platform, residence, make_write_strategy(
            "dynamic", platform, MemoryPool(platform, 1 << 20)))
        engine.extend_edges(table)
        assert seeded.codes is None and table.columns[-1].codes is None
        with pytest.raises(ExecutionError):
            filter_by_support(platform, table, codes, PatternTable(),
                              MinSupport(1))


def test_support_is_looked_up_per_pattern_not_per_row(monkeypatch):
    """Work count, not time: on every FPM level ``support_of`` is asked about
    at most as many codes as the level has distinct patterns."""
    from repro.algorithms import frequent_pattern_mining
    from repro.core import Gamma
    from repro.graph.generators import kronecker

    asked = []
    real = PatternTable.support_of

    def support_of(self, codes):
        asked.append(len(codes))
        return real(self, codes)

    distinct = []
    real_merge = PatternTable.merge

    def merge(self, codes, counts):
        distinct.append(len(codes))
        return real_merge(self, codes, counts)

    monkeypatch.setattr(PatternTable, "support_of", support_of)
    monkeypatch.setattr(PatternTable, "merge", merge)
    graph = kronecker(7, 6, seed=5, name="pin-standin", labels=4, label_seed=6)
    with Gamma(graph) as engine:
        result = frequent_pattern_mining(engine, 3, 6)
    assert len(asked) == len(distinct) == 3
    assert all(a <= d for a, d in zip(asked, distinct))
    assert result.frequent_per_level[-1] > 0
