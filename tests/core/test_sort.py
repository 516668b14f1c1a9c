"""Tests for Optimization 3: out-of-core sorting (Algorithm 3).

The shipped sort bills both phases from each segment's runs; the
element-by-element sort and merge the model describes live in
:mod:`tests.twins` (``device_sort_segments``, ``multi_merge``), are
tested here on their own, and are the reference the run-length bill must
match bit for bit — clock buckets, counters, output.
"""

import sys
from importlib import import_module
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.algorithms import frequent_pattern_mining
from repro.core import (
    CPU_SORT,
    MULTI_MERGE,
    NAIVE_MERGE,
    XTR2SORT,
    Gamma,
    GammaConfig,
    merge_runs,
    out_of_core_sort,
    segment_runs,
    sort_and_count,
)
from repro.core.embedding_table import Codes
from repro.errors import ExecutionError
from repro.gpusim import make_platform
from repro.gpusim import clock as clk
from repro.graph.generators import kronecker
from repro.graph.groupby import group_by
from tests.twins import (
    device_sort_segments,
    merged_by_scatter,
    multi_merge,
    straight_line,
)

sort_module = import_module("repro.core.sort")


@pytest.fixture
def keys():
    return np.random.default_rng(7).integers(-1 << 40, 1 << 40, 50_000)


class TestSegmentPhase:
    def test_segments_sorted_and_partition_input(self, platform, keys):
        segments = device_sort_segments(platform, keys, 7_000)
        assert sum(len(s) for s in segments) == len(keys)
        for seg in segments:
            assert (np.diff(seg) >= 0).all()

    def test_single_segment(self, platform):
        segs = device_sort_segments(platform, np.array([3, 1, 2]), 100)
        assert len(segs) == 1
        assert segs[0].tolist() == [1, 2, 3]

    def test_invalid_segment_len(self, platform, keys):
        with pytest.raises(ExecutionError):
            device_sort_segments(platform, keys, 0)

    def test_charges_pcie_roundtrip(self, platform, keys):
        device_sort_segments(platform, keys, 10_000)
        assert platform.clock.time_in(clk.PCIE_EXPLICIT) > 0


class TestMultiMerge:
    def test_merges_correctly(self, platform, keys):
        segments = device_sort_segments(platform, keys, 9_000)
        merged = multi_merge(platform, segments, p_size=1024)
        assert (merged == np.sort(keys)).all()

    def test_duplicates_heavy(self, platform):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 5, 10_000)  # massive duplication
        segments = device_sort_segments(platform, keys, 1_500)
        merged = multi_merge(platform, segments, p_size=128)
        assert (merged == np.sort(keys)).all()

    def test_unsorted_segment_rejected(self, platform):
        with pytest.raises(ExecutionError):
            multi_merge(platform, [np.array([3, 1])])

    def test_empty_input(self, platform):
        assert len(multi_merge(platform, [])) == 0
        assert len(multi_merge(platform, [np.array([], dtype=np.int64)])) == 0

    def test_invalid_p_size(self, platform):
        with pytest.raises(ExecutionError):
            multi_merge(platform, [np.array([1])], p_size=0)

    def test_skewed_segments(self, platform):
        """One giant segment + several tiny ones (checkpoint imbalance)."""
        rng = np.random.default_rng(1)
        segs = [np.sort(rng.integers(0, 1000, n)) for n in (5000, 3, 1, 200)]
        merged = multi_merge(platform, segs, p_size=256)
        assert (merged == np.sort(np.concatenate(segs))).all()

    def test_naive_variant_same_output(self, platform, keys):
        segments = device_sort_segments(platform, keys, 9_000)
        merged = multi_merge(platform, segments, p_size=1024,
                             skip_reverse_search=False)
        assert (merged == np.sort(keys)).all()

    @given(
        hst.lists(
            hst.lists(hst.integers(min_value=-100, max_value=100), max_size=60),
            min_size=1, max_size=6,
        ),
        hst.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_property(self, lists, p_size):
        platform = make_platform()
        segments = [np.sort(np.array(lst, dtype=np.int64)) for lst in lists]
        expected = np.sort(np.concatenate(segments)) if any(
            len(s) for s in segments
        ) else np.array([], dtype=np.int64)
        merged = multi_merge(platform, segments, p_size=p_size)
        assert merged.tolist() == expected.tolist()


class TestOutOfCoreSort:
    @pytest.mark.parametrize("method", [MULTI_MERGE, NAIVE_MERGE, XTR2SORT, CPU_SORT])
    def test_all_methods_correct(self, method, keys):
        platform = make_platform()
        out = out_of_core_sort(platform, keys, method=method, segment_len=8_000)
        assert (out == np.sort(keys)).all()

    def test_unknown_method_rejected(self, platform, keys):
        with pytest.raises(ExecutionError):
            out_of_core_sort(platform, keys, method="bogosort")

    def test_default_segment_len_from_device(self, keys):
        platform = make_platform(device_memory_bytes=1 << 16)
        out = out_of_core_sort(platform, keys)
        assert (out == np.sort(keys)).all()

    def test_empty_keys(self, platform):
        out = out_of_core_sort(platform, np.array([], dtype=np.int64))
        assert len(out) == 0

    def test_fig19_ordering(self):
        """The Fig. 19 shape at merge-bound sizes: multi-merge < xtr2sort <
        naive, and the CPU sort far behind (Table III)."""
        big = np.random.default_rng(3).integers(-1 << 60, 1 << 60, 400_000)
        times = {}
        for method in (MULTI_MERGE, NAIVE_MERGE, XTR2SORT, CPU_SORT):
            platform = make_platform()
            out_of_core_sort(platform, big, method=method, segment_len=50_000,
                             p_size=8192)
            times[method] = platform.clock.total
        assert times[MULTI_MERGE] < times[NAIVE_MERGE]
        assert times[MULTI_MERGE] < times[XTR2SORT]
        assert times[CPU_SORT] > 3 * times[MULTI_MERGE]

    def test_input_not_mutated(self, platform, keys):
        copy = keys.copy()
        out_of_core_sort(platform, keys, segment_len=8_000)
        assert (keys == copy).all()


class TestSortAndCount:
    def test_run_length(self, platform):
        uniq, counts = sort_and_count(
            platform, np.array([5, 1, 5, 5, 2, 1]), segment_len=3, p_size=2
        )
        assert uniq.tolist() == [1, 2, 5]
        assert counts.tolist() == [2, 1, 3]

    def test_empty(self, platform):
        uniq, counts = sort_and_count(platform, np.array([], dtype=np.int64))
        assert len(uniq) == 0
        assert len(counts) == 0

    def test_all_same(self, platform):
        uniq, counts = sort_and_count(platform, np.full(100, 7), segment_len=30)
        assert uniq.tolist() == [7]
        assert counts.tolist() == [100]

    @given(hst.lists(hst.integers(min_value=-50, max_value=50), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_unique(self, values):
        platform = make_platform()
        arr = np.array(values, dtype=np.int64)
        uniq, counts = sort_and_count(platform, arr, segment_len=37, p_size=8)
        exp_u, exp_c = np.unique(arr, return_counts=True)
        assert uniq.tolist() == exp_u.tolist()
        assert counts.tolist() == exp_c.tolist()


def _billed_sort(keys, method, segment_len, p_size, encoded):
    """``out_of_core_sort`` then ``sort_and_count`` of ``keys`` (handed
    dictionary-encoded when ``encoded``) on one fresh platform; the outputs
    with the clock buckets and counters they left."""
    platform = make_platform()
    handed = Codes(*group_by(keys)) if encoded else keys
    ordered = out_of_core_sort(platform, handed, method=method,
                               segment_len=segment_len, p_size=p_size)
    uniq, counts = sort_and_count(platform, handed, method=method,
                                  segment_len=segment_len, p_size=p_size)
    return (ordered, uniq, counts, platform.clock.snapshot(),
            platform.counters.snapshot(include_zero=True))


def _assert_bills_like_the_twin(keys, method, segment_len, p_size, encoded):
    keys = np.asarray(keys, dtype=np.int64)
    shipped = _billed_sort(keys, method, segment_len, p_size, encoded)
    with straight_line():
        twin = _billed_sort(keys, method, segment_len, p_size, encoded)
    for got, want in zip(shipped[:3], twin[:3]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert shipped[3] == twin[3]
    assert shipped[4] == twin[4]
    np.testing.assert_array_equal(shipped[0], np.sort(keys))
    exp_u, exp_c = np.unique(keys, return_counts=True)
    np.testing.assert_array_equal(shipped[1], exp_u)
    np.testing.assert_array_equal(shipped[2], exp_c)


@hst.composite
def sort_inputs(draw):
    shape = draw(hst.sampled_from(
        ["duplicates", "all-equal", "distinct-62-bit", "skewed", "wide"]))
    n = draw(hst.integers(min_value=0, max_value=300))
    seed = draw(hst.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if shape == "duplicates":
        keys = rng.integers(-3, 4, n)
    elif shape == "all-equal":
        keys = np.full(n, draw(hst.integers(-5, 5)), dtype=np.int64)
    elif shape == "distinct-62-bit":
        keys = rng.choice(np.arange(-(1 << 61), 1 << 61, (1 << 62) // 4096),
                          size=min(n, 4096), replace=False)
    elif shape == "skewed":
        # Ascending input: every segment holds its own range, and one
        # stretch repeats a single value.
        keys = np.sort(np.concatenate(
            [rng.integers(0, 1000, n // 2), np.full(n - n // 2, 500)]))
    else:
        keys = rng.integers(-(1 << 40), 1 << 40, n)
    segment_len = draw(hst.integers(min_value=1, max_value=max(1, len(keys) + 5)))
    return (keys, draw(hst.sampled_from([MULTI_MERGE, NAIVE_MERGE])),
            segment_len, draw(hst.integers(min_value=1, max_value=32)),
            draw(hst.booleans()))


class TestRunLengthBill:
    """The run-length bill against the element-by-element twin."""

    @given(sort_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_twin(self, case):
        _assert_bills_like_the_twin(*case)

    @pytest.mark.parametrize("encoded", [False, True])
    @pytest.mark.parametrize("method", [MULTI_MERGE, NAIVE_MERGE])
    @pytest.mark.parametrize("case", [
        "empty", "one-segment", "all-equal", "heavy-duplicates",
        "skewed-segments", "fig19-distinct-62-bit",
    ])
    def test_named_inputs(self, case, method, encoded):
        rng = np.random.default_rng(11)
        segment_len, p_size = 1_500, 16
        if case == "empty":
            keys = np.array([], dtype=np.int64)
        elif case == "one-segment":
            keys, segment_len = rng.integers(0, 50, 1_000), 1_000
        elif case == "all-equal":
            keys = np.full(5_000, -7)
        elif case == "heavy-duplicates":
            keys = rng.integers(0, 5, 10_000)
        elif case == "skewed-segments":
            # One segment of a single value, the others spread out.
            keys = np.concatenate([np.full(1_500, 42), rng.integers(0, 10**6, 4_000)])
        else:
            keys = rng.integers(-(1 << 61), 1 << 61, 20_000)
            segment_len, p_size = 2_500, 256
        _assert_bills_like_the_twin(keys, method, segment_len, p_size, encoded)

    @pytest.mark.parametrize("method", [CPU_SORT, XTR2SORT])
    def test_other_methods_take_encoded_keys(self, method):
        keys = np.random.default_rng(5).integers(-20, 20, 3_000)
        plain = _billed_sort(keys, method, 700, 16, False)
        encoded = _billed_sort(keys, method, 700, 16, True)
        for got, want in zip(encoded, plain):
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want

    @pytest.mark.parametrize("skip_reverse_search", [True, False])
    def test_merge_of_skewed_runs(self, skip_reverse_search):
        """One giant segment and several tiny ones, as runs."""
        rng = np.random.default_rng(1)
        runs = [np.unique(rng.integers(0, 1000, n), return_counts=True)
                for n in (5000, 3, 1, 200)]
        shipped, twin = make_platform(), make_platform()
        got = merge_runs(shipped, runs, 256, skip_reverse_search)
        want = merged_by_scatter(twin, runs, 256, skip_reverse_search)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert shipped.clock.snapshot() == twin.clock.snapshot()
        assert shipped.counters.snapshot() == twin.counters.snapshot()

    def test_rejects_bad_input(self, platform):
        with pytest.raises(ExecutionError):
            segment_runs(platform, np.array([1, 2]), 0)
        with pytest.raises(ExecutionError):
            merge_runs(platform, [(np.array([1]), np.array([3]))], p_size=0)
        with pytest.raises(ExecutionError):
            segment_runs(platform, Codes(np.array([5, 5]), np.array([0, 1])), 4)
        with pytest.raises(ExecutionError):
            segment_runs(platform, Codes(np.array([5]), np.array([0, 1])), 4)
        assert all(len(a) == 0 for a in merge_runs(platform, []))


class _SortSpy:
    """Stands in for ``numpy`` inside a module (:mod:`repro.core.sort` here)
    and records the name and size of every array handed to a sorting
    function — plus the functions named in ``also`` — sized by its longest
    positional operand."""

    SORTS = frozenset({"sort", "argsort", "unique", "lexsort", "partition",
                       "argpartition"})

    def __init__(self, also=()):
        self.watched = self.SORTS | frozenset(also)
        self.names, self.sizes = [], []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.watched:
            return attr

        def spy(*args, **kwargs):
            self.names.append(name)
            self.sizes.append(max(int(np.size(a)) for a in args))
            return attr(*args, **kwargs)
        return spy


@pytest.mark.parametrize("device_memory_bytes", [None, 1 << 17])
def test_an_fpm_level_sorts_no_code_array(device_memory_bytes, monkeypatch):
    """Work count, not time: aggregation hands ``sort_and_count`` its codes
    dictionary-encoded, and the sort never sorts an array as long as the
    level (one segment on the default device, three at 128 KiB)."""
    aggregation = sys.modules["repro.core.aggregation"]
    real = aggregation.sort_and_count
    seen = []

    def sort_and_count_spied(platform, keys, *args, **kwargs):
        spy = _SortSpy()
        with mock.patch.object(sort_module, "np", spy):
            out = real(platform, keys, *args, **kwargs)
        seen.append((len(keys), max(spy.sizes, default=0)))
        return out

    monkeypatch.setattr(aggregation, "sort_and_count", sort_and_count_spied)
    graph = kronecker(7, 6, seed=5, name="pin-standin", labels=4, label_seed=6)
    config = GammaConfig(device_memory_bytes=device_memory_bytes, p_size=32)
    with Gamma(graph, config) as engine:
        frequent_pattern_mining(engine, 2, 6)
    assert [rows for rows, __ in seen] == [440, 8243]
    for rows, largest in seen:
        assert largest < rows / 4
