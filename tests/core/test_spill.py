"""Tests for the disk-spilling extension tier."""

import numpy as np
import pytest

from repro.algorithms import count_kcliques, frequent_pattern_mining
from repro.core import (
    DISK_IO,
    EmbeddingTable,
    Gamma,
    GammaConfig,
    SpillPolicy,
    SpillStore,
    VERTEX,
)
from repro.errors import HostOutOfMemory
from repro.graph import kronecker
from repro.gpusim import make_platform


class TestSpillStore:
    def test_roundtrip(self, platform, tmp_path):
        with SpillStore(platform, tmp_path) as store:
            data = np.arange(1000).reshape(2, 500)
            handle = store.spill(data)
            back = store.fetch(handle)
            assert (back == data).all()

    def test_charges_disk_time(self, platform, tmp_path):
        with SpillStore(platform, tmp_path) as store:
            store.spill(np.zeros((2, 10_000), dtype=np.int64))
            assert platform.clock.time_in(DISK_IO) > 0

    def test_footprint_tracking(self, platform, tmp_path):
        with SpillStore(platform, tmp_path) as store:
            arr = np.zeros((2, 100), dtype=np.int64)
            h = store.spill(arr)
            assert store.bytes_on_disk == arr.nbytes
            store.discard(h)
            assert store.bytes_on_disk == 0

    def test_discard_idempotent(self, platform, tmp_path):
        with SpillStore(platform, tmp_path) as store:
            h = store.spill(np.zeros((2, 4), dtype=np.int64))
            store.discard(h)
            store.discard(h)

    def test_close_removes_files(self, platform, tmp_path):
        store = SpillStore(platform, tmp_path)
        store.spill(np.zeros((2, 4), dtype=np.int64))
        store.close()
        assert not list(tmp_path.glob("col-*.bin"))


class TestSpillPolicy:
    def test_under_budget_spills_nothing(self):
        policy = SpillPolicy(host_budget_bytes=1000)
        assert policy.columns_to_spill([100, 200], [True, True]) == []

    def test_spills_oldest_first(self):
        policy = SpillPolicy(host_budget_bytes=250, keep_columns=1)
        out = policy.columns_to_spill([100, 100, 100], [True, True, True])
        assert out == [0]

    def test_keep_columns_protects_recent(self):
        policy = SpillPolicy(host_budget_bytes=1, keep_columns=2)
        out = policy.columns_to_spill([100, 100, 100], [True, True, True])
        assert out == [0]  # only the one column outside the keep window

    def test_skips_already_spilled(self):
        policy = SpillPolicy(host_budget_bytes=150, keep_columns=1)
        out = policy.columns_to_spill([100, 100, 100], [False, True, True])
        assert out == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            SpillPolicy(0)
        with pytest.raises(ValueError):
            SpillPolicy(10, keep_columns=0)


class TestSpilledTable:
    def make_table(self, platform, tmp_path, budget=2000):
        table = EmbeddingTable(platform, VERTEX, "t")
        store = SpillStore(platform, tmp_path)
        table.attach_spill(store, SpillPolicy(budget, keep_columns=1))
        return table, store

    def test_old_columns_spill_and_read_back(self, platform, tmp_path):
        table, store = self.make_table(platform, tmp_path, budget=2000)
        table.seed(np.arange(100))                       # 1600 B
        table.append_column(np.arange(100), np.arange(100))  # over budget
        assert table.spilled_columns == 1
        mats = table.materialize()
        assert (mats[:, 0] == np.arange(100)).all()
        store.close()

    def test_host_usage_reduced(self, tmp_path):
        platform = make_platform()
        table, store = self.make_table(platform, tmp_path, budget=2000)
        table.seed(np.arange(100))
        used_before = platform.host_used
        table.append_column(np.arange(100), np.arange(100))
        # seed column moved to disk: its 1600 B left the host ledger
        assert platform.host_used == used_before
        store.close()

    def test_oversized_column_goes_straight_to_disk(self, tmp_path):
        platform = make_platform()
        table = EmbeddingTable(platform, VERTEX, "t")
        store = SpillStore(platform, tmp_path)
        budget = 10_000
        table.attach_spill(store, SpillPolicy(budget, keep_columns=1))
        table.seed(np.arange(10))
        big = np.arange(10_000)
        table.append_column(big, np.zeros(10_000, dtype=np.int64))
        assert table.spilled_columns >= 1
        assert table.num_embeddings == 10_000
        store.close()

    def test_compact_spilled_last_column(self, tmp_path):
        platform = make_platform()
        table = EmbeddingTable(platform, VERTEX, "t")
        store = SpillStore(platform, tmp_path)
        table.attach_spill(store, SpillPolicy(4000, keep_columns=1))
        table.seed(np.arange(10))
        table.append_column(np.arange(1000), np.zeros(1000, dtype=np.int64))
        if table.spilled_columns == 0:
            pytest.skip("column fit the budget")
        removed = table.compact(np.arange(1000) < 10)
        assert removed == 990
        assert table.num_embeddings == 10
        store.close()


class TestGammaSpill:
    def test_survives_host_oom_workload(self):
        """The extension's point: a workload whose table exceeds simulated
        host memory completes with spilling enabled."""
        g = kronecker(10, 24, seed=31)  # hub-heavy: huge wedge level
        tiny_host = 1 << 22  # 4 MiB simulated host memory
        from repro.gpusim.spec import DeviceSpec
        from dataclasses import replace
        from repro.gpusim import GpuPlatform

        def make(spill):
            spec = replace(
                DeviceSpec(), host_memory_bytes=tiny_host,
                device_memory_bytes=1 << 21,
            )
            platform = GpuPlatform(spec)
            config = GammaConfig(
                spill_to_disk=spill, spill_budget_bytes=1 << 21,
                write_buffer_bytes=1 << 18,
            )
            return Gamma(g, config, platform=platform)

        with pytest.raises(HostOutOfMemory):
            with make(spill=False) as engine:
                count_kcliques(engine, 4)
        with make(spill=True) as engine:
            result = count_kcliques(engine, 4)
            assert result.cliques > 0
            assert engine.platform.clock.time_in(DISK_IO) > 0

    def test_results_identical_with_and_without_spill(self):
        g = kronecker(8, 6, seed=7, labels=3)
        with Gamma(g) as a:
            plain = frequent_pattern_mining(a, 2, 3).patterns
        with Gamma(g, GammaConfig(spill_to_disk=True,
                                  spill_budget_bytes=1 << 14)) as b:
            spilled = frequent_pattern_mining(b, 2, 3).patterns
        assert plain == spilled

    def test_spill_costs_show_up(self):
        g = kronecker(9, 8, seed=5)
        times = {}
        for spill, budget in ((False, None), (True, 1 << 16)):
            with Gamma(g, GammaConfig(spill_to_disk=spill,
                                      spill_budget_bytes=budget)) as engine:
                count_kcliques(engine, 3)
                times[spill] = engine.simulated_seconds
        assert times[True] > times[False]  # the extra tier is not free


class TestAbortCleanup:
    """Regression: aborted runs must not leak spill temp directories.

    The store's close() used to discard only *tracked* files, so a run
    that died mid-level (leaving a column written just before the fault
    unwound the append) kept its ``gamma-spill-*`` mkdtemp directory
    around forever.  Owned directories are now removed wholesale.
    """

    def test_owned_dir_removed_despite_untracked_files(self, platform):
        import os

        store = SpillStore(platform)  # store-owned mkdtemp directory
        store.spill(np.zeros((2, 8), dtype=np.int64))
        # Simulate a fault unwinding the append after the write landed:
        # the file exists but no handle tracks it.
        stray = os.path.join(store.directory, "col-999.bin")
        with open(stray, "wb") as handle:
            handle.write(b"x" * 64)
        directory = store.directory
        store.close()
        assert not os.path.exists(directory)

    def test_context_manager_abort_removes_owned_dir(self, platform):
        import os

        with pytest.raises(RuntimeError, match="mid-level"):
            with SpillStore(platform) as store:
                store.spill(np.zeros((2, 8), dtype=np.int64))
                directory = store.directory
                raise RuntimeError("mid-level abort")
        assert not os.path.exists(directory)

    def test_caller_owned_dir_survives_close(self, platform, tmp_path):
        store = SpillStore(platform, tmp_path)
        store.spill(np.zeros((2, 8), dtype=np.int64))
        store.close()
        assert tmp_path.exists()  # only the tracked files are discarded
        assert not list(tmp_path.glob("col-*.bin"))

    def test_engine_abort_mid_level_leaves_no_spill_dir(self):
        import os

        from repro.resilience import FaultPlan, FaultSpec

        g = kronecker(9, 8, seed=5)
        engine = Gamma(g, GammaConfig(spill_to_disk=True,
                                      spill_budget_bytes=1 << 16))
        engine.platform.install_fault_plan(FaultPlan(
            name="abort",
            specs=(FaultSpec(kind="device_oom", at="*/level:3"),)))
        from repro.errors import DeviceOutOfMemory
        with pytest.raises(DeviceOutOfMemory):
            count_kcliques(engine, 4)
        store = engine.shards[0]._spill_store
        assert store is not None and store.bytes_spilled > 0
        directory = store.directory
        engine.close()
        assert not os.path.exists(directory)
