"""Tests for the columnar embedding table."""

import numpy as np
import pytest

from repro.core import EDGE, VERTEX, EmbeddingTable
from repro.core.embedding_table import ARRAYS, PAIR
from repro.errors import DeviceOutOfMemory, ExecutionError, HostOutOfMemory
from repro.gpusim import clock as clk
from repro.gpusim import make_platform
from repro.gpusim import stats as st


@pytest.fixture
def table(platform):
    return EmbeddingTable(platform, VERTEX, "t")


class TestShape:
    def test_empty(self, table):
        assert table.depth == 0
        assert table.num_embeddings == 0
        assert table.materialize().shape == (0, 0)

    def test_seed(self, table):
        table.seed(np.array([3, 5, 9]))
        assert table.depth == 1
        assert table.num_embeddings == 3

    def test_double_seed_rejected(self, table):
        table.seed(np.array([1]))
        with pytest.raises(ExecutionError):
            table.seed(np.array([2]))

    def test_append_before_seed_rejected(self, table):
        with pytest.raises(ExecutionError):
            table.append_column(np.array([1]), np.array([0]))

    def test_invalid_kind_rejected(self, platform):
        with pytest.raises(ExecutionError):
            EmbeddingTable(platform, "weird")

    def test_bad_parent_rejected(self, table):
        table.seed(np.array([1, 2]))
        with pytest.raises(ExecutionError):
            table.append_column(np.array([5]), np.array([2]))  # only 2 rows
        with pytest.raises(ExecutionError):
            table.append_column(np.array([5]), np.array([-1]))


class TestMaterialize:
    def test_prefix_tree_sharing(self, table):
        # Two seeds; the first has two children (shared parent cell).
        table.seed(np.array([10, 20]))
        table.append_column(np.array([11, 12, 21]), np.array([0, 0, 1]))
        mats = table.materialize()
        assert mats.tolist() == [[10, 11], [10, 12], [20, 21]]

    def test_three_levels(self, table):
        table.seed(np.array([1]))
        table.append_column(np.array([2, 3]), np.array([0, 0]))
        table.append_column(np.array([4, 5, 6]), np.array([0, 0, 1]))
        mats = table.materialize()
        assert mats.tolist() == [[1, 2, 4], [1, 2, 5], [1, 3, 6]]

    def test_row_subset(self, table):
        table.seed(np.array([1, 2, 3]))
        mats = table.materialize(np.array([2, 0]))
        assert mats.tolist() == [[3], [1]]

    def test_all_rows_equals_identity_subset(self):
        """``rows=None`` copies the last column instead of gathering it
        through ``arange(n)``: same matrix, same charges, and the result
        never aliases the table's columns."""
        def build(platform):
            table = EmbeddingTable(platform)
            table.seed(np.array([1, 2]))
            table.append_column(np.array([3, 4, 5]), np.array([0, 1, 1]))
            table.append_column(np.array([6, 7, 8, 9]), np.array([2, 0, 0, 1]))
            return table

        whole_platform, subset_platform = make_platform(), make_platform()
        whole = build(whole_platform).materialize()
        table = build(subset_platform)
        subset = table.materialize(np.arange(4))
        assert whole.tolist() == subset.tolist() == [
            [2, 5, 6], [1, 3, 7], [1, 3, 8], [2, 4, 9]]
        assert whole_platform.clock.snapshot() == subset_platform.clock.snapshot()
        assert (whole_platform.counters.snapshot(include_zero=True)
                == subset_platform.counters.snapshot(include_zero=True))
        mats = table.materialize()
        mats[:] = -1
        assert table.materialize().tolist() == whole.tolist()

    @pytest.mark.parametrize("rows", [None, np.array([3, 0, 2])])
    def test_column_major_reads_as_row_major(self, table, rows):
        """Each level's ids are contiguous (an anchor read is one
        ``take`` on one column), yet the matrix equals the row-major one
        and ``ravel`` keeps row-major order."""
        table.seed(np.array([1, 2]))
        table.append_column(np.array([3, 4, 5]), np.array([0, 1, 1]))
        table.append_column(np.array([6, 7, 8, 9]), np.array([2, 0, 0, 1]))
        expected = np.array([[2, 5, 6], [1, 3, 7], [1, 3, 8], [2, 4, 9]])
        if rows is not None:
            expected = expected[rows]
        mats = table.materialize(rows)
        assert np.array_equal(mats, expected)
        assert mats.ravel().tolist() == expected.ravel().tolist()
        assert mats.flags.f_contiguous
        assert all(mats[:, c].flags.c_contiguous for c in range(3))

    def test_total_cells(self, table):
        table.seed(np.array([1, 2]))
        table.append_column(np.array([5]), np.array([1]))
        assert table.total_cells == 3
        assert table.nbytes == 3 * 16


class TestCompact:
    def test_compact_removes_rows(self, table):
        table.seed(np.array([1, 2, 3, 4]))
        removed = table.compact(np.array([True, False, True, False]))
        assert removed == 2
        assert table.materialize().ravel().tolist() == [1, 3]

    def test_compact_wrong_mask_rejected(self, table):
        table.seed(np.array([1, 2]))
        with pytest.raises(ExecutionError):
            table.compact(np.array([True]))

    def test_compact_empty_table_rejected(self, table):
        with pytest.raises(ExecutionError):
            table.compact(np.array([], dtype=bool))

    def test_compact_reclaims_host_memory(self, platform):
        table = EmbeddingTable(platform, VERTEX, "t")
        table.seed(np.arange(1000))
        used_before = platform.host_used
        table.compact(np.zeros(1000, dtype=bool))
        assert platform.host_used < used_before

    def test_compact_charges_three_stages(self, platform):
        table = EmbeddingTable(platform, VERTEX, "t")
        table.seed(np.arange(64))
        launches_before = platform.counters.get(st.KERNEL_LAUNCHES)
        table.compact(np.ones(64, dtype=bool))
        # mark + collect kernels (scan charges compute directly)
        assert platform.counters.get(st.KERNEL_LAUNCHES) >= launches_before + 2


class TestColumnsAreReplacedNeverWritten:
    """What lets a snapshot hold columns by reference."""

    def test_columns_are_read_only_and_snapshots_hold_them(self, table):
        mine = np.array([5, 6, 7, 8], dtype=np.int64)
        table.seed(mine)                                       # stored
        table.append_column(np.array([1, 2, 3]), np.array([0, 0, 3]))
        table.compact(np.array([True, False, True]))           # replaced
        held = table.snapshot_columns()
        table.restore_columns(held)                            # re-installed
        for level, record in enumerate(held):
            for live, kept in (
                    (table.column_values(level), record["values"]),
                    (table.column_parents(level), record["parents"])):
                with pytest.raises(ValueError, match="read-only"):
                    live[0] = 99
                with pytest.raises(ValueError, match="read-only"):
                    live.sort()
                assert np.shares_memory(live, kept)
        # The caller's own array keeps its flag ...
        assert mine.flags.writeable
        assert np.shares_memory(mine, table.column_values(0))
        # ... and a later replacement leaves what the snapshot holds alone.
        table.compact(np.array([False, True]))
        assert held[1]["values"].tolist() == [1, 3]
        assert table.column_values(1).tolist() == [3]


class TestListsDoNotOutliveTheirUse:
    """What a vertex extension records on its column lasts until the next
    level has read it, and goes wherever the column goes."""

    @staticmethod
    def _lists():
        from repro.core.embedding_table import Survivors

        return Survivors((0,), frozenset(), frozenset(), frozenset(),
                         np.array([1, 2, 3]), np.array([0, 0, 3]))

    def _grown(self, table):
        table.seed(np.array([5, 6, 7, 8]))
        table.append_column(np.array([1, 3]), np.array([0, 3]), self._lists())
        return table.columns[-1]

    def test_next_append_and_release_drop_them(self, table):
        column = self._grown(table)
        assert column.lists is not None
        table.append_column(np.array([9]), np.array([1]), self._lists())
        assert column.lists is None
        assert table.columns[-1].lists is not None
        table.release()
        assert table.columns[-1].lists is None

    def test_a_replaced_column_carries_none(self, table):
        from repro.core.filtering import filter_rows

        self._grown(table)
        table.compact(np.array([True, True]))  # keeps every row, still replaces
        assert table.columns[-1].lists is None
        table.append_column(np.array([9, 9]), np.array([1, 1]), self._lists())
        filter_rows(table, np.array([True, False]), compact=False)  # mark-only
        assert table.columns[-1].lists is None
        assert table.column_values(2).tolist() == [9]
        assert not table.column_values(2).flags.writeable

    def test_snapshots_hold_values_and_parents_only(self, table):
        self._grown(table)
        held = table.snapshot_columns()
        assert [sorted(record) for record in held] == [
            ["parents", "spilled", "values"]] * 2
        table.restore_columns(held)
        assert table.columns[-1].lists is None

    def test_a_spilled_column_carries_none(self, platform):
        from repro.core.spill import SpillPolicy, SpillStore

        table = EmbeddingTable(platform, VERTEX)
        store = SpillStore(platform)
        try:
            table.attach_spill(store, SpillPolicy(1, keep_columns=1))
            self._grown(table)  # over budget: straight to disk
            assert table.spilled_columns == 2
            assert table.columns[-1].lists is None
            table.append_column(np.array([9]), np.array([1]))
            table.release()
        finally:
            store.close()

    def test_kept_table_of_a_labelled_query_holds_no_pre_label_array(self):
        from repro.algorithms import match_pattern
        from repro.core import Gamma
        from repro.graph import sm_query
        from repro.graph.generators import kronecker

        graph = kronecker(7, 6, seed=5, labels=4, label_seed=6)
        recorded = []

        def after_level(engine):
            (table,) = engine.shards[0]._tables
            assert all(column.lists is None for column in table.columns[:-1])
            recorded.append(table.columns[-1].lists is not None)

        with Gamma(graph) as engine:
            match_pattern(engine, sm_query(3),
                          level_hook=lambda info: after_level(engine))
            # The seed leaves none, nor does q3's last level: its survivors
            # before the label were billed, never materialised.
            assert recorded == [False, True, True, False]
            # The triangle's last level is labelled and leaves its own ...
            result, table = match_pattern(engine, sm_query(1), keep_table=True)
            lists = table.parts[0].columns[-1].lists
            assert len(lists.values) > table.num_embeddings
        # ... until the engine lets go of the table.
        assert all(column.lists is None for column in table.parts[0].columns)
        assert table.num_embeddings == result.embeddings > 0
        assert table.materialize().shape == (result.embeddings, 3)



class TestEdgeGrownLastsAsLongAsItsColumn:
    """An unrestricted edge extension of a one-edge table is a ``PAIR``
    column: a checkpoint round trip restores it as one (it records its
    level-1 rows), spilling stores those rows and keeps it one, and a
    compacted or caller-built level is an ``ARRAYS`` column."""

    #: Edges 0 (0, 1), 1 (1, 2), 2 (1, 3), 3 (2, 3); the rows hold 0, 1
    #: and 3, whose children are their endpoints' other incident edges.
    CHILDREN = [[1, 2, 0, 2, 3, 1, 2], [0, 0, 1, 1, 1, 2, 2]]

    @staticmethod
    def _grown(table):
        from repro.graph import from_edge_list

        graph = from_edge_list([(0, 1), (1, 2), (2, 3), (1, 3)])
        table.seed(np.array([0, 1, 3]))
        table.append_pair(table.column_values(0), graph)
        return graph

    def test_snapshot_and_restore_keep_it(self, platform):
        from repro.resilience.checkpoint import (
            deserialize_state,
            serialize_state,
        )

        table = EmbeddingTable(platform, EDGE)
        graph = self._grown(table)
        blob = serialize_state({"columns": table.snapshot_columns()})
        other = EmbeddingTable(make_platform(), EDGE)
        other.restore_columns(deserialize_state(blob)["columns"], graph)
        assert [c.source for c in other.columns] == [ARRAYS, PAIR]
        assert [other.column_values(1).tolist(),
                other.column_parents(1).tolist()] == self.CHILDREN
        assert other.nbytes == table.nbytes

    def test_spilling_keeps_it(self, platform):
        from repro.core.spill import SpillPolicy, SpillStore

        table = EmbeddingTable(platform, EDGE)
        store = SpillStore(platform)
        try:
            table.attach_spill(store, SpillPolicy(1, keep_columns=1))
            graph = self._grown(table)
            assert table.spilled_columns == 2
            assert table.columns[-1].source == PAIR
            # Its file is the level-1 ids; its bill the 7 rows' arrays.
            assert store.bytes_on_disk == (2 * 3 + 3) * 8
            assert store.bytes_spilled == (3 + 7) * 16
            assert [table.column_values(1).tolist(),
                    table.column_parents(1).tolist()] == self.CHILDREN
            table.restore_columns(table.snapshot_columns(), graph)
            assert table.spilled_columns == 2
            assert table.columns[-1].source == PAIR
            table.compact(np.arange(7) % 2 == 0)
            assert table.columns[-1].source == ARRAYS
            assert table.column_values(1).tolist() == [1, 0, 3, 2]
            table.release()
        finally:
            store.close()

    def test_compact_and_callers_drop_it(self, platform):
        table = EmbeddingTable(platform, EDGE)
        self._grown(table)
        assert table.columns[-1].source == PAIR
        table.compact(np.ones(7, dtype=bool))  # keeps every row, still replaces
        assert table.columns[-1].source == ARRAYS
        assert [table.column_values(1).tolist(),
                table.column_parents(1).tolist()] == self.CHILDREN
        table.append_column(np.array([1]), np.array([0]))
        assert table.columns[-1].source == ARRAYS


class TestResidency:
    def test_out_of_core_registers_host_bytes(self, platform):
        table = EmbeddingTable(platform, VERTEX, "t")
        table.seed(np.arange(100))
        assert platform.host_used >= 100 * 16

    def test_out_of_core_flushes_over_pcie(self, platform):
        table = EmbeddingTable(platform, VERTEX, "t")
        table.seed(np.arange(100))
        assert platform.counters.get(st.BYTES_D2H) >= 100 * 16

    def test_device_resident_allocates_per_column(self):
        platform = make_platform()
        table = EmbeddingTable(platform, VERTEX, "t", device_resident=True)
        before = platform.device.used
        table.seed(np.arange(10))
        assert platform.device.used == before + 160

    def test_device_resident_oom(self):
        platform = make_platform(device_memory_bytes=1024)
        table = EmbeddingTable(platform, VERTEX, "t", device_resident=True)
        with pytest.raises(DeviceOutOfMemory):
            table.seed(np.arange(100))  # 1600 bytes > 1024

    def test_out_of_core_host_oom(self):
        platform = make_platform()
        table = EmbeddingTable(platform, VERTEX, "t")
        too_many = platform.spec.host_memory_bytes // 16 + 1
        with pytest.raises(HostOutOfMemory):
            table.seed(np.zeros(too_many, dtype=np.int64))

    def test_uncharged_table_charges_nothing(self, platform):
        table = EmbeddingTable(platform, VERTEX, "t", charged=False)
        table.seed(np.arange(100))
        table.materialize()
        assert platform.clock.total == 0.0

    def test_release_returns_resources(self):
        platform = make_platform()
        table = EmbeddingTable(platform, VERTEX, "t")
        table.seed(np.arange(100))
        table.release()
        assert platform.host_used == 0
        assert platform.device.used == 0

    def test_last_column_served_from_write_buffer(self):
        """Walking the freshly written column costs device bandwidth, not a
        fresh PCIe stream (it is still in the device write buffer)."""
        platform = make_platform()
        table = EmbeddingTable(platform, VERTEX, "t", write_buffer_bytes=1 << 20)
        table.seed(np.arange(1000))
        h2d_before = platform.counters.get(st.BYTES_H2D)
        device_before = platform.clock.time_in(clk.DEVICE_MEM)
        table.walk_levels(1000)
        assert platform.counters.get(st.BYTES_H2D) == h2d_before
        assert platform.clock.time_in(clk.DEVICE_MEM) > device_before

    def test_edge_kind(self, platform):
        table = EmbeddingTable(platform, EDGE, "e")
        table.seed(np.array([0, 1]))
        assert table.kind == EDGE
