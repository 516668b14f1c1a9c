"""Contract tests for :class:`PageBuffer`: duplicate-input hardening and
the amortized (argpartition) vs. fallback (lexsort) eviction equivalence."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.gpusim import PageBuffer, unified


@hst.composite
def raw_traces(draw):
    """Access traces WITHOUT the unique/sorted guarantee (the hardened
    contract must dedupe these itself)."""
    total_pages = draw(hst.integers(min_value=1, max_value=48))
    capacity = draw(hst.integers(min_value=0, max_value=24))
    n_batches = draw(hst.integers(min_value=0, max_value=16))
    batches = [
        np.array(
            draw(
                hst.lists(
                    hst.integers(min_value=0, max_value=total_pages - 1),
                    max_size=24,
                )
            ),
            dtype=np.int64,
        )
        for __ in range(n_batches)
    ]
    return total_pages, capacity, batches


class TestDuplicateInputs:
    def test_duplicates_do_not_double_count_residency(self):
        buffer = PageBuffer(capacity_pages=8, total_pages=16)
        hits, misses = buffer.access(np.array([3, 3, 3, 5], dtype=np.int64))
        assert (hits, misses) == (0, 2)
        assert buffer.resident_count == 2
        assert buffer.resident_pages.tolist() == [3, 5]

    def test_duplicates_with_zero_capacity(self):
        buffer = PageBuffer(capacity_pages=0, total_pages=16)
        hits, misses = buffer.access(np.array([7, 7, 2], dtype=np.int64))
        assert (hits, misses) == (0, 2)
        assert buffer.resident_count == 0

    def test_unsorted_input_is_accepted(self):
        buffer = PageBuffer(capacity_pages=4, total_pages=8)
        hits, misses = buffer.access(np.array([5, 1, 3], dtype=np.int64))
        assert (hits, misses) == (0, 3)
        assert buffer.resident_pages.tolist() == [1, 3, 5]

    @given(raw_traces())
    @settings(max_examples=60, deadline=None)
    def test_duplicate_trace_equals_deduped_trace(self, trace):
        total_pages, capacity, batches = trace
        raw = PageBuffer(capacity, total_pages)
        clean = PageBuffer(capacity, total_pages)
        for batch in batches:
            got = raw.access(batch)
            want = clean.access(np.unique(batch))
            assert got == want
        assert raw.resident_pages.tolist() == clean.resident_pages.tolist()
        assert raw.evictions == clean.evictions


class TestEvictionOrder:
    def test_lru_evicts_oldest_first(self):
        buffer = PageBuffer(capacity_pages=2, total_pages=8)
        buffer.access(np.array([0], dtype=np.int64))
        buffer.access(np.array([1], dtype=np.int64))
        buffer.access(np.array([2], dtype=np.int64))  # evicts 0 (oldest)
        assert buffer.resident_pages.tolist() == [1, 2]

    def test_tie_breaks_by_page_id(self):
        buffer = PageBuffer(capacity_pages=2, total_pages=8)
        buffer.access(np.array([4, 6], dtype=np.int64))  # same tick
        buffer.access(np.array([1], dtype=np.int64))  # evicts 4 (lower id)
        assert buffer.resident_pages.tolist() == [1, 6]

    def test_drop_then_readmit_is_treated_as_fresh(self):
        """A dropped page loses its residency AND its recency: on re-admit
        it competes with its new tick, not its old one."""
        buffer = PageBuffer(capacity_pages=2, total_pages=8)
        buffer.access(np.array([0], dtype=np.int64))  # tick 1
        buffer.access(np.array([1], dtype=np.int64))  # tick 2
        buffer.drop(np.array([0], dtype=np.int64))
        assert buffer.resident_pages.tolist() == [1]
        buffer.access(np.array([0], dtype=np.int64))  # re-admit at tick 3
        buffer.access(np.array([2], dtype=np.int64))  # tick 4: evict 1, not 0
        assert buffer.resident_pages.tolist() == [0, 2]

    @given(raw_traces())
    @settings(max_examples=60, deadline=None)
    def test_fast_eviction_matches_reference(self, trace):
        """argpartition over the packed (last_use, id) key must evict the
        exact same victim set as the full lexsort (forced here by a zero
        packed-key limit)."""
        total_pages, capacity, batches = trace
        fast = PageBuffer(capacity, total_pages)
        fast_results = [fast.access(b) for b in batches]
        with mock.patch.object(unified, "_PACKED_KEY_LIMIT", 0), \
                mock.patch.object(np, "argpartition", side_effect=AssertionError):
            ref = PageBuffer(capacity, total_pages)
            ref_results = [ref.access(b) for b in batches]
        assert fast_results == ref_results
        assert fast.resident_pages.tolist() == ref.resident_pages.tolist()
        assert fast.evictions == ref.evictions

    @given(raw_traces(), hst.integers(min_value=-3, max_value=0))
    @settings(max_examples=60, deadline=None)
    def test_same_victims_across_the_packed_key_tick_limit(self, trace, lead):
        """Past ``_PACKED_KEY_LIMIT // total_pages`` ticks the packed key
        could overflow and eviction sorts instead.  A buffer whose clock
        starts ``lead`` ticks before that boundary crosses it mid-trace
        and must keep evicting what a buffer at tick zero evicts (recency
        is relative, so the shifted clock changes nothing else)."""
        total_pages, capacity, batches = trace
        plain = PageBuffer(capacity, total_pages)
        late = PageBuffer(capacity, total_pages)
        late._tick = unified._PACKED_KEY_LIMIT // total_pages + lead
        for batch in batches:
            assert late.access(batch) == plain.access(batch)
            assert late.resident_pages.tolist() == plain.resident_pages.tolist()
        assert late.evictions == plain.evictions

    def test_tick_limit_selects_lexsort(self):
        """One tick below the limit packs keys; at the limit it sorts."""
        limit = unified._PACKED_KEY_LIMIT // 8
        for tick, banned in ((limit - 2, "lexsort"), (limit - 1, "argpartition")):
            buffer = PageBuffer(capacity_pages=2, total_pages=8)
            buffer.access(np.array([4, 6, 7], dtype=np.int64))
            buffer._tick = tick
            with mock.patch.object(np, banned, side_effect=AssertionError):
                buffer.access(np.array([1, 2], dtype=np.int64))
            assert buffer.resident_pages.tolist() == [1, 2]
