"""Tests for the extension engine (vertex + edge extension)."""

import numpy as np
import pytest

from repro.core import (
    EDGE,
    VERTEX,
    EmbeddingTable,
    ExtensionEngine,
    GammaResidence,
    HostResidence,
    MemoryPool,
    make_write_strategy,
)
from repro.errors import ExecutionError
from repro.graph import clique_graph, from_edge_list
from repro.gpusim import make_platform
from repro.gpusim import stats as st


def gamma_engine(graph, pre_merge=True, strategy="dynamic"):
    platform = make_platform()
    residence = GammaResidence(platform, graph, buffer_pages=64)
    pool = MemoryPool(platform, 1 << 20) if strategy == "dynamic" else None
    ws = make_write_strategy(strategy, platform, pool)
    return platform, ExtensionEngine(platform, residence, ws, pre_merge=pre_merge)


def cpu_engine(graph):
    platform = make_platform()
    residence = HostResidence(platform, graph)
    return platform, ExtensionEngine(platform, residence, None, cpu=True)


class TestSeeding:
    def test_seed_all_vertices(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        engine.seed_vertices(table)
        assert table.num_embeddings == 5

    def test_seed_label_filtered(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        engine.seed_vertices(table, label=0)
        assert table.materialize().ravel().tolist() == [0, 3]

    def test_seed_edges(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        engine.seed_edges(table)
        assert table.num_embeddings == tiny_graph.num_edges

    def test_seed_kind_mismatch(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        with pytest.raises(ExecutionError):
            engine.seed_vertices(table)
        vtable = EmbeddingTable(platform, VERTEX)
        with pytest.raises(ExecutionError):
            engine.seed_edges(vtable)


class TestVertexExtension:
    def test_neighbors_of_seed(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([2]))
        engine.extend_vertices(table, [0])
        assert sorted(table.materialize()[:, 1].tolist()) == [0, 1, 3]

    def test_multi_anchor_intersection(self, wheel_graph):
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([1]))
        engine.extend_vertices(table, [0])          # neighbors of 1
        engine.extend_vertices(table, [0, 1])       # common neighbors
        mats = table.materialize()
        for row in mats:
            assert wheel_graph.has_edge(int(row[0]), int(row[2]))
            assert wheel_graph.has_edge(int(row[1]), int(row[2]))

    def test_injectivity(self, wheel_graph):
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(6))
        engine.extend_vertices(table, [0])
        engine.extend_vertices(table, [1])  # neighbors of last vertex
        mats = table.materialize()
        for row in mats:
            assert len(set(row.tolist())) == 3

    def test_ordering_constraint(self):
        g = clique_graph(5)
        platform, engine = gamma_engine(g)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(5))
        engine.extend_vertices(table, [0], greater_than_col=0, injective=False)
        mats = table.materialize()
        assert (mats[:, 1] > mats[:, 0]).all()
        assert table.num_embeddings == 10

    def test_label_constraint(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([2]))
        engine.extend_vertices(table, [0], label=0)
        assert sorted(table.materialize()[:, 1].tolist()) == [0, 3]

    def test_bad_anchor_rejected(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([0]))
        with pytest.raises(ExecutionError):
            engine.extend_vertices(table, [1])
        with pytest.raises(ExecutionError):
            engine.extend_vertices(table, [])

    def test_empty_table_extension(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([], dtype=np.int64))
        stats = engine.extend_vertices(table, [0])
        assert stats.rows_out == 0
        assert table.num_embeddings == 0

    def test_wrong_kind_rejected(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        table.seed(np.array([0]))
        with pytest.raises(ExecutionError):
            engine.extend_vertices(table, [0])

    def test_stats_populated(self, wheel_graph):
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(6))
        stats = engine.extend_vertices(table, [0])
        assert stats.rows_in == 6
        assert stats.rows_out == table.num_embeddings
        assert stats.candidates >= stats.rows_out
        assert stats.kernel_ops > 0
        assert stats.per_row_counts.sum() == stats.rows_out

    def test_bfs_output_order(self, wheel_graph):
        """Extension output stays grouped by parent row (BFS layout)."""
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(6))
        engine.extend_vertices(table, [0])
        parents = table.columns[-1].parents
        assert (np.diff(parents) >= 0).all()


class TestModesAgree:
    """pre-merge on/off, all write strategies, CPU vs GPU: identical rows."""

    @pytest.mark.parametrize("strategy", ["dynamic", "two_pass", "prealloc"])
    @pytest.mark.parametrize("pre_merge", [True, False])
    def test_gpu_modes(self, wheel_graph, strategy, pre_merge):
        platform, engine = gamma_engine(wheel_graph, pre_merge, strategy)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(6))
        engine.extend_vertices(table, [0])
        engine.extend_vertices(table, [0, 1])
        reference_platform, reference = gamma_engine(wheel_graph)
        ref_table = EmbeddingTable(reference_platform, VERTEX)
        ref_table.seed(np.arange(6))
        reference.extend_vertices(ref_table, [0])
        reference.extend_vertices(ref_table, [0, 1])
        got = sorted(map(tuple, table.materialize().tolist()))
        expected = sorted(map(tuple, ref_table.materialize().tolist()))
        assert got == expected

    def test_cpu_engine_agrees(self, wheel_graph):
        platform, engine = cpu_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX, charged=False)
        table.seed(np.arange(6))
        engine.extend_vertices(table, [0])
        gpu_platform, gpu = gamma_engine(wheel_graph)
        gpu_table = EmbeddingTable(gpu_platform, VERTEX)
        gpu_table.seed(np.arange(6))
        gpu.extend_vertices(gpu_table, [0])
        assert sorted(map(tuple, table.materialize().tolist())) == sorted(
            map(tuple, gpu_table.materialize().tolist())
        )

    def test_pre_merge_charges_fewer_ops(self):
        """Optimization 2's premise: with two or more shared prefix anchors
        (Fig. 8's case), grouping replaces per-row multi-list intersection
        with one L_m per group."""
        g = clique_graph(12)
        ops = {}
        for pre_merge in (True, False):
            platform, engine = gamma_engine(g, pre_merge)
            table = EmbeddingTable(platform, VERTEX)
            table.seed(np.arange(12))
            engine.extend_vertices(table, [0], greater_than_col=0, injective=False)
            engine.extend_vertices(table, [0, 1], greater_than_col=1, injective=False)
            stats = engine.extend_vertices(
                table, [0, 1, 2], greater_than_col=2, injective=False
            )
            ops[pre_merge] = stats.kernel_ops
        assert ops[True] < ops[False]

    def test_two_pass_doubles_region_reads(self, wheel_graph):
        reads = {}
        for strategy in ("dynamic", "two_pass"):
            platform, engine = gamma_engine(wheel_graph, strategy=strategy)
            table = EmbeddingTable(platform, VERTEX)
            table.seed(np.arange(6))
            before = platform.counters.get(st.ZC_TRANSACTIONS)
            engine.extend_vertices(table, [0])
            reads[strategy] = platform.counters.get(st.ZC_TRANSACTIONS) - before
        assert reads["two_pass"] >= 2 * reads["dynamic"]


class TestEdgeExtension:
    def test_adjacent_edges(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        engine.seed_edges(table)
        engine.extend_edges(table)
        mats = table.materialize()
        for e1, e2 in mats.tolist():
            s1, d1 = tiny_graph.edge_src[e1], tiny_graph.edge_dst[e1]
            s2, d2 = tiny_graph.edge_src[e2], tiny_graph.edge_dst[e2]
            assert {s1, d1} & {s2, d2}  # adjacency
            assert e1 != e2

    def test_no_duplicate_candidate_within_row(self, wheel_graph):
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, EDGE)
        engine.seed_edges(table)
        engine.extend_edges(table)
        mats = table.materialize()
        keys = set(map(tuple, mats.tolist()))
        assert len(keys) == len(mats)  # (parent, new) pairs unique

    def test_wrong_kind_rejected(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([0]))
        with pytest.raises(ExecutionError):
            engine.extend_edges(table)

    def test_empty_edge_table(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        table.seed(np.array([], dtype=np.int64))
        stats = engine.extend_edges(table)
        assert stats.rows_out == 0

    def test_wedge_count(self, tiny_graph):
        """Level-2 dedup gives the exact 2-edge connected subgraph count."""
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        engine.seed_edges(table)
        engine.extend_edges(table)
        sets = {tuple(sorted(row)) for row in table.materialize().tolist()}
        deg = tiny_graph.degrees
        wedges = int((deg * (deg - 1) // 2).sum())
        assert len(sets) == wedges


class TestUnionExtension:
    """extend_vertices_any: Definition 3.1's literal N_v(M)."""

    def test_union_of_neighborhoods(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([0]))
        engine.extend_vertices(table, [0])           # N(0) = {1, 2}
        engine.extend_vertices_any(table, [0, 1])    # N(0) u N(last)
        mats = table.materialize()
        for row in mats:
            u, v, w = int(row[0]), int(row[1]), int(row[2])
            assert tiny_graph.has_edge(u, w) or tiny_graph.has_edge(v, w)

    def test_dedup_within_row(self, wheel_graph):
        """A candidate adjacent to several anchors appears once."""
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([1]))
        engine.extend_vertices(table, [0])
        engine.extend_vertices_any(table, [0, 1])
        mats = table.materialize()
        assert len(set(map(tuple, mats.tolist()))) == len(mats)

    def test_reaches_beyond_intersection(self, tiny_graph):
        """Union extension finds vertices all-anchors intersection misses."""
        platform, engine = gamma_engine(tiny_graph)
        t_all = EmbeddingTable(platform, VERTEX)
        t_all.seed(np.array([0]))
        engine.extend_vertices(t_all, [0])
        engine.extend_vertices(t_all, [0, 1])
        platform2, engine2 = gamma_engine(tiny_graph)
        t_any = EmbeddingTable(platform2, VERTEX)
        t_any.seed(np.array([0]))
        engine2.extend_vertices(t_any, [0])
        engine2.extend_vertices_any(t_any, [0, 1])
        assert t_any.num_embeddings > t_all.num_embeddings

    def test_constraints_apply(self, wheel_graph):
        platform, engine = gamma_engine(wheel_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(6))
        engine.extend_vertices_any(table, [0], greater_than_col=0)
        mats = table.materialize()
        assert (mats[:, 1] > mats[:, 0]).all()

    def test_wrong_kind_rejected(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, EDGE)
        table.seed(np.array([0]))
        with pytest.raises(ExecutionError):
            engine.extend_vertices_any(table, [0])

    @pytest.mark.parametrize("kwargs", [
        {"greater_than_cols": [1]},
        {"less_than_cols": [5]},
        {"greater_than_col": -1},  # would silently compare the last column
    ])
    def test_bad_ordering_column_rejected(self, tiny_graph, kwargs):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.arange(3))
        with pytest.raises(ExecutionError, match="ordering column"):
            engine.extend_vertices_any(table, [0], **kwargs)

    def test_empty_table(self, tiny_graph):
        platform, engine = gamma_engine(tiny_graph)
        table = EmbeddingTable(platform, VERTEX)
        table.seed(np.array([], dtype=np.int64))
        stats = engine.extend_vertices_any(table, [0])
        assert stats.rows_out == 0
