"""Charge-path equivalence against the straight-line twins.

The batched charge path (bincount page derivation, ``ChargeBatch``
memoization, argpartition eviction) must produce *bit-for-bit* the same
simulated clock buckets and event counters as the straight-line stack of
:mod:`tests.twins` (never memoised, lexsort eviction), for every region
type, on randomized access patterns — including the repeated identical
batches a two-pass write strategy issues and hybrid mode-map replans that
invalidate the memo.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.gpusim import (
    HybridRegion,
    UnifiedRegion,
    ZeroCopyRegion,
    make_platform,
    regions,
)
from tests.twins import straight_line

N_ELEMENTS = 4096  # 32 KiB payload = 8 pages at the default 4 KiB page


@hst.composite
def access_scripts(draw):
    """A replayable sequence of region accesses."""
    n_ops = draw(hst.integers(min_value=1, max_value=12))
    ops = []
    for __ in range(n_ops):
        kind = draw(
            hst.sampled_from(
                ["gather", "ranges", "charge", "charge_twice", "replan"]
            )
        )
        if kind == "gather":
            idx = draw(
                hst.lists(
                    hst.integers(min_value=0, max_value=N_ELEMENTS - 1),
                    max_size=64,
                )
            )
            ops.append((kind, np.array(idx, dtype=np.int64)))
        elif kind == "replan":
            pages = draw(
                hst.lists(hst.integers(min_value=0, max_value=7), max_size=8)
            )
            ops.append((kind, np.array(sorted(set(pages)), dtype=np.int64)))
        else:
            n_ranges = draw(hst.integers(min_value=0, max_value=12))
            starts, ends = [], []
            for __ in range(n_ranges):
                s = draw(hst.integers(min_value=0, max_value=N_ELEMENTS - 1))
                length = draw(hst.integers(min_value=0, max_value=96))
                starts.append(s)
                ends.append(min(s + length, N_ELEMENTS))
            ops.append(
                (
                    kind,
                    np.array(starts, dtype=np.int64),
                    np.array(ends, dtype=np.int64),
                )
            )
    return ops


def _replay(region_factory, ops):
    platform = make_platform()
    region = region_factory(platform)
    for op in ops:
        if op[0] == "gather":
            region.gather(op[1])
        elif op[0] == "replan":
            if hasattr(region, "set_unified_pages"):
                region.set_unified_pages(op[1])
        elif op[0] == "ranges":
            region.gather_ranges(op[1], op[2])
        elif op[0] == "charge":
            region.charge_ranges(op[1], op[2])
        else:  # charge_twice: the two-pass strategy's repeated batch
            region.charge_ranges(op[1], op[2])
            region.charge_ranges(op[1], op[2])
    return platform.clock.snapshot(), platform.counters.snapshot()


def _assert_equivalent(region_factory, ops):
    fast_clock, fast_counters = _replay(region_factory, ops)
    with straight_line():
        ref_clock, ref_counters = _replay(region_factory, ops)
    assert fast_clock == ref_clock  # bit-for-bit, not approx
    assert fast_counters == ref_counters


def _payload():
    return np.arange(N_ELEMENTS, dtype=np.int64)


class TestChargeEquivalence:
    @given(access_scripts())
    @settings(max_examples=60, deadline=None)
    def test_unified(self, ops):
        _assert_equivalent(
            lambda p: UnifiedRegion("u", _payload(), p, buffer_pages=4), ops
        )

    @given(access_scripts())
    @settings(max_examples=60, deadline=None)
    def test_unified_tiny_buffer_thrashes_identically(self, ops):
        _assert_equivalent(
            lambda p: UnifiedRegion("u", _payload(), p, buffer_pages=1), ops
        )

    @given(access_scripts())
    @settings(max_examples=60, deadline=None)
    def test_zerocopy(self, ops):
        _assert_equivalent(lambda p: ZeroCopyRegion("z", _payload(), p), ops)

    @given(access_scripts())
    @settings(max_examples=60, deadline=None)
    def test_hybrid(self, ops):
        def factory(p):
            region = HybridRegion("h", _payload(), p, buffer_pages=4)
            region.set_unified_pages(np.array([0, 2, 5], dtype=np.int64))
            return region

        _assert_equivalent(factory, ops)


class TestMemoSafety:
    def test_memo_does_not_leak_across_different_batches(self):
        """Two different (but same-length) batches must charge differently
        even when issued back to back."""
        platform = make_platform()
        region = UnifiedRegion("u", _payload(), platform, buffer_pages=8)
        region.charge_ranges(
            np.array([0], dtype=np.int64), np.array([512], dtype=np.int64)
        )
        before = platform.counters.snapshot()
        region.charge_ranges(
            np.array([2048], dtype=np.int64),
            np.array([2560], dtype=np.int64),
        )
        after = platform.counters.snapshot()
        assert after["page_faults"] > before["page_faults"]

    def test_hybrid_replan_invalidates_memo(self):
        """The same batch object charged before and after a mode-map replan
        must be re-derived (different unified/zero-copy split)."""
        starts = np.array([0], dtype=np.int64)
        ends = np.array([1024], dtype=np.int64)  # pages 0-1

        def run(replan_between):
            platform = make_platform()
            region = HybridRegion("h", _payload(), platform, buffer_pages=8)
            region.set_unified_pages(np.arange(8, dtype=np.int64))
            region.charge_ranges(starts, ends)
            if replan_between:
                region.set_unified_pages(np.empty(0, dtype=np.int64))
            region.charge_ranges(starts, ends)
            return platform.counters.snapshot()

        with_replan = run(True)
        without = run(False)
        assert with_replan.get("zc_transactions", 0) > 0
        assert "zc_transactions" not in without


class TestUnitDerivationEquivalence:
    """The sort-free `dedup_units` / `covered_units` derivations must match
    the `np.unique` fallback exactly.  The fallback is what an unknown
    namespace (``total_units=None``) or a sparse batch selects, so the same
    blocks are derived on both sides of each choice."""

    @given(
        hst.lists(hst.integers(min_value=0, max_value=511), max_size=512),
        hst.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_dedup_units(self, raw_blocks, total_units):
        blocks = np.array(raw_blocks, dtype=np.int64) % total_units
        dense = regions.dedup_units(blocks, total_units)
        unknown = regions.dedup_units(blocks, None)
        # The same ids in a namespace too large for the occupancy pass.
        sparse = regions.dedup_units(blocks, len(blocks) * 8 + 1)
        np.testing.assert_array_equal(dense, np.unique(blocks))
        np.testing.assert_array_equal(dense, unknown)
        np.testing.assert_array_equal(dense, sparse)
        assert dense.dtype == unknown.dtype == sparse.dtype

    @given(
        hst.lists(
            hst.tuples(
                hst.integers(min_value=0, max_value=63),
                hst.integers(min_value=0, max_value=15),
            ),
            max_size=24,
        ),
        hst.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_covered_units(self, raw_ranges, total_units):
        first = np.array([f % total_units for f, __ in raw_ranges], dtype=np.int64)
        last = np.array(
            [min(f % total_units + l, total_units - 1) for f, l in raw_ranges],
            dtype=np.int64,
        )
        dense = regions.covered_units(first, last, total_units)
        unknown = regions.covered_units(first, last, None)
        span = int((last - first + 1).sum())
        sparse = regions.covered_units(first, last, span * 8 + 1)
        np.testing.assert_array_equal(dense, unknown)
        np.testing.assert_array_equal(dense, sparse)
        assert dense.dtype == unknown.dtype == sparse.dtype

    def test_density_threshold_sides(self):
        """8 blocks per namespace unit is the switch: 8 ids stay on the
        occupancy pass up to a 64-unit namespace and sort beyond it."""
        blocks = np.array([5, 1, 5, 3, 0, 1, 7, 2], dtype=np.int64)
        first, last = blocks[:4], blocks[:4] + 1  # span = 8 units
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            regions.dedup_units(blocks, 64)
            regions.covered_units(first, last, 64)
        with mock.patch.object(np, "bincount", side_effect=AssertionError):
            regions.dedup_units(blocks, 65)
            regions.covered_units(first, last, 65)
