"""Out-of-core GPU sorting (Optimization 3, §V-B Challenge 3, Algorithm 3).

``Aggregation`` sorts canonical pattern labels whose total size can exceed
device memory.  GAMMA's answer is a two-phase external sort:

1. **Segment phase** — partition the keys into segments that fit device
   memory and sort each with the in-core GPU sort.
2. **Multi-merge phase** — merge all sorted segments at once: per-segment
   *checkpoints* every ``p_size`` elements are pooled into Ω; *matched
   indices* (Def. 5.1, a binary search) split every segment at every
   checkpoint, producing aligned subtasks of bounded size that merge
   independently (one warp each).  Within a subtask, an element's final
   position is its local index plus its matched index in every other list;
   for the pair ``(j, k)`` with ``j < k`` only the ``S_j``-over-``S_k``
   search runs — the reverse direction is recovered with the prefix-sum
   trick of Fig. 9(c), halving the search work.

Everything the model bills of both phases is a function of each sorted
segment's *runs* ``(value, count)``: a checkpoint is the value of the run
covering a multiple of ``p_size``, a matched index is the count of
elements before a value, and a subtask's list lengths are differences of
matched indices.  So the host keeps a segment as its runs and merges
segments by adding counts.  Keys handed dictionary-encoded give a
segment's runs by counting and are never sorted: any object with
ascending unique ``distinct`` keys, a ``len``, ``segment_counts(bounds)``
(how often each distinct key occurs between consecutive row bounds) and
``rows()`` (the keys in row order) — a level's
:class:`~repro.core.embedding_table.Codes` (one ``bincount`` a segment),
or a pair level's keys, counted from its ranges.
The element-by-element merge the model describes is the straight-line
twin in ``tests/twins.py``.

The module also implements the comparators of Fig. 19 / Table III: the
naive multi-merge (both search directions run), an ``xtr2sort``-style
radix-partitioning external sort, and a CPU in-memory sort.  All four
produce identical output and differ only in charged cost, which is what the
figure compares.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ExecutionError
from ..gpusim import clock as clk
from ..gpusim import stats as st
from ..gpusim.platform import GpuPlatform
from ..graph.groupby import _run_starts

MULTI_MERGE = "multi_merge"
NAIVE_MERGE = "naive_merge"
XTR2SORT = "xtr2sort"
CPU_SORT = "cpu_sort"

SORT_METHODS = (MULTI_MERGE, NAIVE_MERGE, XTR2SORT, CPU_SORT)

#: Default checkpoint spacing (elements) for the merge phase.
DEFAULT_P_SIZE = 1 << 14

#: A sorted sequence as ``(values, counts)``: ascending distinct values
#: and how often each occurs.
Runs = tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=1 << 12)  # billed per segment, subtask and list pair
def _log2(n: int) -> float:
    return float(np.log2(max(2, n)))


def _counted(keys):
    """Dictionary-encoded ``keys`` as counted keys; ``None`` for an array."""
    return keys if hasattr(keys, "segment_counts") else None


def _itemsize(keys) -> int:
    counted = _counted(keys)
    return (keys if counted is None else counted.distinct).dtype.itemsize


def _run_length(ordered: np.ndarray) -> Runs:
    """The runs of a sorted array."""
    starts = np.flatnonzero(_run_starts(ordered))
    return ordered[starts], np.diff(np.append(starts, len(ordered)))


def _present(distinct: np.ndarray, counts: np.ndarray) -> Runs:
    present = counts > 0
    return distinct[present], counts[present]


def _runs_of(keys) -> Runs:
    """The runs of ``keys`` in sorted order (an unsorted batch)."""
    counted = _counted(keys)
    if counted is None:
        return np.unique(keys, return_counts=True)
    return _present(counted.distinct, counted.segment_counts([0, len(counted)])[0])


def segment_runs(
    platform: GpuPlatform, keys, segment_len: int
) -> list[Runs]:
    """Phase 1: split ``keys`` into device-sized segments, sort each on the
    device, and write the sorted segments back to host memory.  Returns
    each sorted segment as its runs."""
    if segment_len <= 0:
        raise ExecutionError("segment_len must be positive")
    counted = _counted(keys)
    if counted is not None:
        distinct = counted.distinct
        if len(distinct) > 1 and (distinct[1:] <= distinct[:-1]).any():
            raise ExecutionError("dictionary keys must be ascending and unique")
    else:
        keys = np.asarray(keys)
    n, itemsize = len(keys), _itemsize(keys)
    bounds = list(range(0, n, segment_len)) + [n]
    if counted is not None:
        counts = counted.segment_counts(bounds)
    runs = []
    for index, start in enumerate(bounds[:-1]):
        length = bounds[index + 1] - start
        nbytes = length * itemsize
        # Stage the segment in, radix-sort it, stream it back out.
        platform.pcie.explicit_copy(nbytes, to_device=True)
        platform.kernel.launch(
            "segment-sort",
            element_ops=length * _log2(length),
            device_bytes=2 * nbytes,
        )
        platform.pcie.writeback(nbytes)
        runs.append(_present(counted.distinct, counts[index])
                    if counted is not None
                    else _runs_of(keys[start:start + length]))
    platform.counters.add(st.SORT_ELEMENTS, n)
    return runs


def _charge_subtask(
    platform: GpuPlatform,
    lengths: list[int],
    itemsize: int,
    skip_reverse_search: bool,
) -> None:
    """Bill merging one subtask's aligned short lists of ``lengths`` by
    matched-index positioning.  ``skip_reverse_search=False`` is the naive
    variant that searches both directions of every pair."""
    lengths = [length for length in lengths if length]
    if not lengths:
        return
    step_cost = platform.cost.search_step_ops
    search_ops = 0.0
    for j, len_j in enumerate(lengths):
        for len_k in lengths[j + 1:]:
            # Matched index of each S_j element over S_k (ties: j first).
            search_ops += len_j * _log2(len_k) * step_cost
            if skip_reverse_search:
                # Fig. 9(c): recover S_k's offsets over S_j with a
                # prefix-sum over the matched-index histogram.
                search_ops += len_k
            else:
                search_ops += len_k * _log2(len_j) * step_cost
    total = sum(lengths)
    platform.kernel.launch(
        "multi-merge:subtask",
        element_ops=search_ops + total,
        device_bytes=total * itemsize * 2,
    )


def _merged(runs: list[Runs]) -> Runs:
    """One run list holding every element of ``runs``."""
    values = np.concatenate([values for values, __ in runs])
    counts = np.concatenate([counts for __, counts in runs])
    order = np.argsort(values, kind="stable")
    values, counts = values[order], counts[order]
    starts = np.flatnonzero(_run_starts(values))
    return values[starts], np.add.reduceat(counts, starts)


def merge_runs(
    platform: GpuPlatform,
    runs: list[Runs],
    p_size: int = DEFAULT_P_SIZE,
    skip_reverse_search: bool = True,
) -> Runs:
    """Phase 2 (Algorithm 3): merge sorted segments, given as their runs,
    into one sorted sequence (returned as its runs)."""
    lengths = [int(counts.sum()) for __, counts in runs]
    total = sum(lengths)
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p_size <= 0:
        raise ExecutionError("p_size must be positive")
    itemsize = runs[0][0].dtype.itemsize
    # before[i]: elements of the segment ahead of its run i.
    befores = [np.concatenate([[0], np.cumsum(counts)]) for __, counts in runs]

    # Ω: the pooled values at positions p_size, 2 * p_size, ... of every
    # segment — each the value of the run whose end first passes it.
    points = [
        values[np.searchsorted(
            before[1:], np.arange(p_size, length, p_size, dtype=np.int64),
            side="right")]
        for (values, __), before, length in zip(runs, befores, lengths)
        if length > p_size
    ]
    omega = np.unique(np.concatenate(points)) if points else runs[0][0][:0]
    # Matched indices of all checkpoints over all segments (parallel binary
    # searches on the device).
    search_ops = sum(
        len(omega) * _log2(length) * platform.cost.search_step_ops
        for length in lengths
    )
    platform.kernel.launch("multi-merge:split", element_ops=search_ops)
    # Def. 5.1 (side='left'): a checkpoint's matched index in a segment is
    # the count of elements below its value.
    cuts = np.zeros((len(runs), len(omega) + 2), dtype=np.int64)
    for row, ((values, __), before, length) in enumerate(
            zip(runs, befores, lengths)):
        cuts[row, 1:-1] = before[np.searchsorted(values, omega, side="left")]
        cuts[row, -1] = length
    for task_lengths in np.diff(cuts, axis=1).T.tolist():
        task_total = sum(task_lengths)
        # Stream the subtask's data through the device.
        platform.pcie.explicit_copy(task_total * itemsize, to_device=True)
        _charge_subtask(platform, task_lengths, itemsize, skip_reverse_search)
        platform.pcie.writeback(task_total * itemsize)
    return _merged(runs)


def _checked_keys(keys, method: str):
    if method not in SORT_METHODS:
        raise ExecutionError(f"unknown sort method {method!r}; use {SORT_METHODS}")
    return keys if _counted(keys) is not None else np.asarray(keys)


def _sorted_runs_impl(
    platform: GpuPlatform,
    keys,
    method: str,
    segment_len: int | None,
    p_size: int,
) -> Runs:
    """Bill sorting ``keys`` with ``method``; returns the sorted runs."""
    n, itemsize = len(keys), _itemsize(keys)
    if method == CPU_SORT:
        # A single-threaded comparison sort on the host (Table III's
        # CPU baseline): n log n ops at one core's effective rate.
        ops = n * _log2(n)
        platform.clock.advance(clk.CPU_COMPUTE, ops / platform.cost.cpu_ops_per_thread)
        platform.counters.add(st.CPU_OPS, int(ops))
        platform.counters.add(st.SORT_ELEMENTS, n)
        return _runs_of(keys)
    if segment_len is None:
        # Half the *free* device memory for keys, leaving room for the
        # in-core sort's double buffer.
        free = max(platform.device.available, 2 * itemsize)
        segment_len = max(1, free // (2 * itemsize))
    if method == XTR2SORT:
        counted = _counted(keys)
        if counted is not None:
            keys = counted.rows()
        return _run_length(_xtr2sort(platform, keys, segment_len))
    runs = segment_runs(platform, keys, segment_len)
    if len(runs) == 1:
        return runs[0]
    return merge_runs(
        platform, runs, p_size,
        skip_reverse_search=(method == MULTI_MERGE),
    )


def out_of_core_sort(
    platform: GpuPlatform,
    keys,
    method: str = MULTI_MERGE,
    segment_len: int | None = None,
    p_size: int = DEFAULT_P_SIZE,
) -> np.ndarray:
    """Sort ``keys`` (host-resident, possibly exceeding device memory).

    ``method`` selects GAMMA's optimized multi-merge, the naive multi-merge,
    the xtr2sort-style radix partitioner, or a CPU sort (Table III).
    """
    keys = _checked_keys(keys, method)
    tel = platform.telemetry
    with tel.span(f"sort:{method}", kind="stage"):
        values, counts = _sorted_runs_impl(platform, keys, method, segment_len, p_size)
    if tel.active:
        tel.metric("sort.elements", len(keys), method=method)
    return np.repeat(values, counts)


def _xtr2sort(
    platform: GpuPlatform, keys: np.ndarray, segment_len: int
) -> np.ndarray:
    """xtr2sort-style external sort: radix-partition the keys into
    device-sized buckets on the host (two extra full passes over the data),
    then sort each bucket in-core.

    This is the [29]/[30] style of out-of-core GPU sort the paper compares
    against: correct, but its partitioning passes do not overlap and the
    bucket scatter is random-access on the host."""
    keys = np.asarray(keys)
    if len(keys) == 0:
        return keys.copy()
    n_buckets = max(1, -(-len(keys) // segment_len))
    # Pass 1: histogram/sample pass to find splitters (full read).
    platform.pcie.explicit_copy(keys.nbytes, to_device=True)
    platform.kernel.launch("xtr2sort:histogram", element_ops=len(keys))
    quantiles = np.linspace(0, 1, n_buckets + 1)[1:-1]
    sample = np.sort(keys[:: max(1, len(keys) // 4096)])
    splitters = sample[(quantiles * (len(sample) - 1)).astype(np.int64)]
    # Pass 2: scatter into host-side buckets.  The reorganization is a
    # random-access pass over host memory (this is what "do not fully
    # utilize GPU parallelism" costs the [29]/[30] designs).
    platform.clock.advance(
        clk.HOST_PREP, 2 * keys.nbytes / platform.cost.host_scatter_bandwidth
    )
    platform.kernel.launch("xtr2sort:scatter", element_ops=2 * len(keys))
    bucket_of = np.searchsorted(splitters, keys, side="right")
    order = np.argsort(bucket_of, kind="stable")
    scattered = keys[order]
    bucket_sizes = np.bincount(bucket_of, minlength=n_buckets)
    # Pass 3: in-core sort per bucket.  Skewed buckets can exceed the
    # segment length; they fall back to a (charged) recursive split.
    out = np.empty_like(keys)
    offset = 0
    for size in bucket_sizes:
        size = int(size)
        if size == 0:
            continue
        chunk = scattered[offset: offset + size]
        passes = max(1, -(-size // segment_len))
        platform.pcie.explicit_copy(chunk.nbytes * passes, to_device=True)
        platform.kernel.launch(
            "xtr2sort:bucket-sort",
            element_ops=size * _log2(size) * passes,
            device_bytes=2 * chunk.nbytes,
        )
        platform.pcie.writeback(chunk.nbytes)
        out[offset: offset + size] = np.sort(chunk)
        offset += size
    platform.counters.add(st.SORT_ELEMENTS, len(keys))
    return out


def sort_and_count(
    platform: GpuPlatform,
    keys,
    method: str = MULTI_MERGE,
    segment_len: int | None = None,
    p_size: int = DEFAULT_P_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys out-of-core, then run-length encode: the aggregation
    primitive's grouping step.  Returns ``(unique_keys, counts)``.
    Dictionary-encoded keys (see the module docstring) are billed as the
    keys they stand for, and no key is sorted."""
    tel = platform.telemetry
    with tel.span("sort-and-count", kind="stage"):
        keys = _checked_keys(keys, method)
        with tel.span(f"sort:{method}", kind="stage"):
            uniq, counts = _sorted_runs_impl(
                platform, keys, method, segment_len, p_size)
        if tel.active:
            tel.metric("sort.elements", len(keys), method=method)
        platform.kernel.launch("run-length", element_ops=len(keys))
        return uniq, counts
