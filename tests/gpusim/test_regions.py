"""Tests for host-memory regions and the index/page arithmetic helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.errors import DeviceOutOfMemory, HostOutOfMemory
from repro.gpusim import (
    expand_ranges,
    make_platform,
    range_lengths_in_units,
    units_for_indices,
)
from repro.gpusim import clock as clk
from repro.gpusim import stats as st


@pytest.fixture
def platform():
    return make_platform()


@pytest.fixture
def payload():
    return np.arange(65536, dtype=np.int64)  # 512 KiB = 128 pages


class TestExpandRanges:
    def test_simple(self):
        out = expand_ranges(np.array([0, 5]), np.array([2, 8]))
        assert out.tolist() == [0, 1, 5, 6, 7]

    def test_empty_ranges_skipped(self):
        out = expand_ranges(np.array([0, 3, 3]), np.array([2, 3, 5]))
        assert out.tolist() == [0, 1, 3, 4]

    def test_all_empty(self):
        out = expand_ranges(np.array([4, 4]), np.array([4, 4]))
        assert out.tolist() == []

    def test_no_ranges(self):
        assert expand_ranges(np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)).tolist() == []

    def test_empty_input_is_an_int64_array(self):
        out = expand_ranges([], [])
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_zero_length_ranges_between_non_empty_ones(self):
        out = expand_ranges(np.array([9, 4, 4, 2, 30, 30, 6]),
                            np.array([11, 4, 4, 5, 30, 30, 7]))
        assert out.tolist() == [9, 10, 2, 3, 4, 6]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            expand_ranges(np.array([5]), np.array([3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_ranges(np.array([1, 2]), np.array([3]))

    @given(
        hst.lists(
            hst.tuples(
                hst.integers(min_value=0, max_value=500),
                hst.integers(min_value=0, max_value=30),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_expansion(self, spans):
        starts = np.array([s for s, __ in spans], dtype=np.int64)
        ends = np.array([s + n for s, n in spans], dtype=np.int64)
        expected = [i for s, n in spans for i in range(s, s + n)]
        assert expand_ranges(starts, ends).tolist() == expected


class TestUnitArithmetic:
    def test_units_for_indices_dedups(self):
        # itemsize 8, unit 128 -> 16 elements per line
        idx = np.array([0, 1, 15, 16, 300])
        assert units_for_indices(idx, 8, 128).tolist() == [0, 1, 18]

    def test_units_empty(self):
        assert units_for_indices(np.array([], dtype=np.int64), 8, 128).tolist() == []

    def test_range_lengths_in_units(self):
        # elements of 8 bytes, 4096-byte pages -> 512 elements/page
        starts = np.array([0, 510, 512])
        ends = np.array([10, 514, 1024])
        out = range_lengths_in_units(starts, ends, 8, 4096)
        assert out.tolist() == [1, 2, 1]

    def test_range_lengths_empty_range_is_zero(self):
        out = range_lengths_in_units(np.array([7]), np.array([7]), 8, 4096)
        assert out.tolist() == [0]


class TestUnifiedRegion:
    def test_gather_returns_values(self, platform, payload):
        region = platform.unified_region("u", payload, buffer_pages=8)
        got = region.gather(np.array([3, 100, 65535]))
        assert got.tolist() == [3, 100, 65535]

    def test_first_touch_faults_then_hits(self, platform, payload):
        region = platform.unified_region("u", payload, buffer_pages=8)
        region.gather(np.array([0, 1, 2]))  # one page, cold
        assert platform.counters.get(st.PAGE_FAULTS) == 1
        region.gather(np.array([3, 4]))  # same page, warm
        assert platform.counters.get(st.PAGE_FAULTS) == 1
        assert platform.counters.get(st.PAGE_HITS) == 1

    def test_eviction_under_pressure(self, platform, payload):
        region = platform.unified_region("u", payload, buffer_pages=2)
        pages = platform.spec.page_size // payload.itemsize
        for page in range(4):
            region.gather(np.array([page * pages]))
        assert platform.counters.get(st.PAGE_FAULTS) == 4
        assert region.buffer.evictions == 2

    def test_lru_eviction_order(self, platform, payload):
        region = platform.unified_region("u", payload, buffer_pages=2)
        per_page = platform.spec.page_size // payload.itemsize
        region.gather(np.array([0 * per_page]))      # page 0
        region.gather(np.array([1 * per_page]))      # page 1
        region.gather(np.array([0 * per_page]))      # touch page 0 again
        region.gather(np.array([2 * per_page]))      # evicts page 1 (LRU)
        assert region.buffer.is_resident(0)
        assert not region.buffer.is_resident(1)
        assert region.buffer.is_resident(2)

    def test_buffer_consumes_device_memory(self, payload):
        platform = make_platform()
        before = platform.device.used
        region = platform.unified_region("u", payload, buffer_pages=8)
        assert platform.device.used - before == 8 * platform.spec.page_size
        region.release()
        assert platform.device.used == before

    def test_migration_charges_pcie_time(self, platform, payload):
        region = platform.unified_region("u", payload, buffer_pages=8)
        t0 = platform.clock.time_in(clk.PCIE_UNIFIED)
        region.gather(np.array([0]))
        migrated = platform.clock.time_in(clk.PCIE_UNIFIED) - t0
        expected = platform.spec.page_size / platform.cost.pcie_bandwidth
        assert migrated == pytest.approx(expected)

    def test_whole_page_migrated_for_one_byte_need(self, platform, payload):
        """The unified-memory pathology: a single-element read moves 4 KB."""
        region = platform.unified_region("u", payload, buffer_pages=8)
        region.gather(np.array([0]))
        assert platform.counters.get(st.BYTES_H2D) == platform.spec.page_size


class TestZeroCopyRegion:
    def test_gather_returns_values(self, platform, payload):
        region = platform.zerocopy_region("z", payload)
        assert region.gather(np.array([7])).tolist() == [7]

    def test_transaction_granularity(self, platform, payload):
        region = platform.zerocopy_region("z", payload)
        per_line = platform.spec.zerocopy_line // payload.itemsize
        region.gather(np.arange(per_line))  # exactly one line
        assert platform.counters.get(st.ZC_TRANSACTIONS) == 1

    def test_no_caching_between_calls(self, platform, payload):
        region = platform.zerocopy_region("z", payload)
        region.gather(np.array([0]))
        region.gather(np.array([0]))
        assert platform.counters.get(st.ZC_TRANSACTIONS) == 2
        assert platform.counters.get(st.PAGE_FAULTS) == 0

    def test_bytes_moved_are_line_sized(self, platform, payload):
        region = platform.zerocopy_region("z", payload)
        region.gather(np.array([0]))
        assert platform.counters.get(st.BYTES_H2D) == platform.spec.zerocopy_line

    def test_no_device_memory_used(self, payload):
        platform = make_platform()
        before = platform.device.used
        platform.zerocopy_region("z", payload)
        assert platform.device.used == before


class TestHybridRegion:
    def test_duplicates_host_storage(self, payload):
        platform = make_platform()
        region = platform.hybrid_region("h", payload, buffer_pages=8)
        assert region.nbytes == 2 * payload.nbytes
        assert platform.host_used == 2 * payload.nbytes

    def test_mode_split_routes_traffic(self, platform, payload):
        region = platform.hybrid_region("h", payload, buffer_pages=8)
        region.set_unified_pages(np.array([0]))
        per_page = platform.spec.page_size // payload.itemsize
        region.gather(np.array([0, per_page]))  # page 0 unified, page 1 zc
        assert platform.counters.get(st.PAGE_FAULTS) == 1
        assert platform.counters.get(st.ZC_TRANSACTIONS) == 1

    def test_demoted_pages_leave_buffer(self, platform, payload):
        region = platform.hybrid_region("h", payload, buffer_pages=8)
        region.set_unified_pages(np.array([0]))
        region.gather(np.array([0]))
        assert region.buffer.is_resident(0)
        region.set_unified_pages(np.array([1]))
        assert not region.buffer.is_resident(0)

    def test_oversubscribed_unified_set_thrashes(self, platform, payload):
        """Routing more pages to unified than the buffer holds is allowed
        (the unified-only baseline does it) and shows up as eviction churn."""
        region = platform.hybrid_region("h", payload, buffer_pages=2)
        region.set_unified_pages(np.arange(8))
        per_page = platform.spec.page_size // payload.itemsize
        for sweep in range(2):
            for page in range(8):
                region.gather(np.array([page * per_page]))
        assert region.buffer.evictions > 0
        assert platform.counters.get(st.PAGE_FAULTS) == 16  # nothing survives

    def test_gather_ranges_values_correct(self, platform, payload):
        region = platform.hybrid_region("h", payload, buffer_pages=8)
        region.set_unified_pages(np.array([0, 1]))
        values, lengths = region.gather_ranges(
            np.array([10, 60000]), np.array([15, 60005])
        )
        assert values.tolist() == [10, 11, 12, 13, 14,
                                   60000, 60001, 60002, 60003, 60004]
        assert lengths.tolist() == [5, 5]


class TestDeviceResidentRegion:
    def test_staging_copies_over_pcie(self, payload):
        platform = make_platform()
        platform.device_region("d", payload)
        assert platform.counters.get(st.BYTES_H2D) == payload.nbytes

    def test_large_array_raises_device_oom(self):
        platform = make_platform(device_memory_bytes=1024)
        with pytest.raises(DeviceOutOfMemory):
            platform.device_region("d", np.zeros(1024, dtype=np.int64))

    def test_access_charges_device_bandwidth_only(self, payload):
        platform = make_platform()
        region = platform.device_region("d", payload)
        platform.clock.reset()
        region.gather(np.array([1, 2, 3]))
        assert platform.clock.time_in(clk.DEVICE_MEM) > 0
        assert platform.clock.time_in(clk.PCIE_ZEROCOPY) == 0
        assert platform.clock.time_in(clk.PCIE_UNIFIED) == 0


class TestHostBudget:
    def test_budget_enforced(self):
        platform = make_platform()
        too_big = platform.spec.host_memory_bytes + 1
        with pytest.raises(HostOutOfMemory):
            platform.register_host_bytes(too_big, "huge")

    def test_peak_tracked(self, payload):
        platform = make_platform()
        region = platform.zerocopy_region("z", payload)
        region.release()
        assert platform.host_used == 0
        assert platform.host_peak == payload.nbytes

    def test_registration_charges_prep_time(self, payload):
        platform = make_platform()
        platform.zerocopy_region("z", payload)
        prep = platform.clock.time_in(clk.HOST_PREP)
        expected = (
            platform.cost.host_register_fixed
            + payload.nbytes / platform.cost.host_register_bandwidth
        )
        assert prep == pytest.approx(expected)

    def test_fixed_cost_charged_once(self, payload):
        platform = make_platform()
        platform.zerocopy_region("a", payload)
        first = platform.clock.time_in(clk.HOST_PREP)
        platform.zerocopy_region("b", payload)
        second = platform.clock.time_in(clk.HOST_PREP) - first
        assert second == pytest.approx(payload.nbytes / platform.cost.host_register_bandwidth)
