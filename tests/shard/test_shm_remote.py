"""Direct unit coverage for the shm transport and RemotePart proxies.

The crash-matrix and parity suites exercise these end-to-end through
worker processes, where the in-process coverage tracer cannot follow.
These tests drive the same coordinator-side code paths directly: the
shared-memory publish/attach/release cycle inside one process, and the
``RemotePart`` read-proxy surface against a live process executor.
"""

import pickle

import numpy as np
import pytest

from repro.core import GammaConfig
from repro.errors import ExecutionError
from repro.graph import generators
from repro.gpusim.spec import InterconnectSpec
from repro.shard import ProcessExecutor, ShardedGamma, shm
from repro.shard.table import RemotePart, ShardedTable
from repro.shard.worker import ShardWorker


@pytest.fixture(scope="module")
def graph():
    return generators.erdos_renyi(24, 70, seed=11, labels=3)


class TestShmTransport:
    def test_small_graphs_ship_pickled(self, graph):
        meta = shm.publish_graph(graph)
        assert meta["mode"] == "pickle"
        assert meta["nbytes"] == shm.graph_nbytes(graph)
        attached = shm.attach_graph(meta)
        assert attached.graph is graph
        attached.close()  # no-op for pickle mode
        shm.release_graph(meta)  # no-op for pickle mode
        assert not shm.live_segments()

    def test_publish_attach_roundtrip_over_segment(self, graph):
        # Force the segment path regardless of graph size.
        meta = shm.publish_graph(graph, threshold=0)
        assert meta["mode"] == "shm"
        assert meta["segment"] in shm.live_segments()
        attached = shm.attach_graph(meta)
        try:
            got = attached.graph
            assert got.name == graph.name
            for field in ("offsets", "neighbors", "edge_src", "edge_dst"):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(graph, field))
            # Views are read-only: workers cannot mutate the shared CSR.
            with pytest.raises(ValueError):
                got.offsets[0] = 99
        finally:
            attached.close()
            shm.release_graph(meta)
        assert meta["segment"] not in shm.live_segments()


class TestRemotePart:
    @pytest.fixture()
    def executor(self, graph):
        executor = ProcessExecutor()
        executor.start(graph=graph, config=GammaConfig(), num_shards=2,
                       policy="static", interconnect=InterconnectSpec())
        yield executor
        executor.shutdown()

    def _seeded_parts(self, executor):
        handles = executor.fanout(
            "new_table", [{"kind": "vertex", "name": "t"}] * 2)
        executor.fanout("seed_vertices",
                        [{"table": handle} for handle in handles])
        return handles, executor.table_parts(handles)

    def test_reads_match_worker_state(self, graph, executor):
        __, parts = self._seeded_parts(executor)
        assert all(isinstance(part, RemotePart) for part in parts)
        # Both workers seeded the full vertex set (no ownership filter).
        assert sum(p.num_embeddings for p in parts) == 2 * graph.num_vertices
        for part in parts:
            assert part.depth == 1
            assert part.total_cells == part.num_embeddings
            assert part.nbytes > 0
            assert part.column_length(0) == part.num_embeddings
            np.testing.assert_array_equal(
                part.column_values(0),
                np.arange(graph.num_vertices, dtype=np.int64))
            np.testing.assert_array_equal(
                part.column_parents(0),
                np.full(part.num_embeddings, -1, dtype=np.int64))
            assert part.materialize().shape == (part.num_embeddings, 1)

    def test_sharded_table_over_remote_parts(self, graph, executor):
        handles, parts = self._seeded_parts(executor)
        table = ShardedTable("vertex", "t", parts, handles=handles)
        assert table.num_shards == 2
        assert table.depth == 1
        assert table.num_embeddings == 2 * graph.num_vertices
        np.testing.assert_array_equal(
            table.shard_row_counts(),
            np.array([graph.num_vertices] * 2, dtype=np.int64))

    def test_seed_and_release(self, executor):
        handles = executor.fanout(
            "new_table", [{"kind": "vertex", "name": "s"}] * 2)
        parts = executor.table_parts(handles)
        parts[0].seed(np.array([3, 1, 2], dtype=np.int64))
        assert parts[0].num_embeddings == 3
        np.testing.assert_array_equal(
            parts[0].column_values(0), np.array([3, 1, 2]))
        for part in parts:
            part.release()
        assert parts[1].num_embeddings == 0

    def test_double_release_of_segment_raises(self, graph):
        meta = shm.publish_graph(graph, threshold=0)
        shm.release_graph(meta)
        with pytest.raises(ExecutionError, match="already"):
            shm.release_graph(meta)


class TestReplyWeight:
    def test_extend_reply_is_counts_not_a_per_row_array(self):
        """What a level ships back to the coordinator does not grow with
        the table: six numbers, no int64 per input row (nothing past the
        extension engine reads ``per_row_counts``, so a sharded or replayed
        op reports the empty array, as it reports 0 ``expanded``)."""
        graph = generators.erdos_renyi(400, 2000, seed=3)
        worker = ShardWorker(0, graph, GammaConfig(), 1, "static",
                             InterconnectSpec())
        try:
            table = worker.do_new_table("vertex", "t")
            worker.do_seed_vertices(table)
            reply = worker.do_extend(table, "vertex", {"anchor_cols": [0]})
            assert reply["rows_in"] == 400 and reply["rows_out"] == 4000
            assert len(pickle.dumps(reply)) < 1024
        finally:
            worker.do_close()
        with ShardedGamma(graph, num_shards=2) as engine:
            table = engine.new_vertex_table("t")
            engine.seed_vertices(table)
            stats = engine.vertex_extension(table, [0])
            assert stats.rows_out == 4000
            assert len(stats.per_row_counts) == 0 == stats.expanded
