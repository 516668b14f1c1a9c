"""Dynamic device-memory allocation for extension results (Optimization 1).

Thousands of threads produce an unknown number of results each — the
"parallel write conflict" of §V-B.  GAMMA's answer: the result buffer is a
pool of 8 KB blocks; each *warp* owns one block, writes results into it,
and requests a fresh block from a scheduler when full.  Intra-warp write
positions come from a warp-level prefix scan (free in SIMT).  The costs the
paper argues about are modelled explicitly:

* allocation requests serialize through the scheduler (bounded because only
  hundreds of warps are active and each requests only when a block fills);
* at the end, each warp's partially filled block wastes its tail — at most
  ``active_warps x block_bytes``, negligible next to the results.

The module also implements the two alternatives GAMMA is compared against:
Pangolin's run-twice counting pass and GSI's worst-case preallocation,
selected via :func:`make_write_strategy` for the Fig. 17/18 ablations.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..gpusim import stats as st
from ..gpusim.platform import GpuPlatform
from ..gpusim.warp import WarpGrid, charge_warp_scan, warp_exclusive_scan

#: The paper's block size: "a memory block is only 8 KB".
DEFAULT_BLOCK_BYTES = 8 * 1024

DYNAMIC = "dynamic"
TWO_PASS = "two_pass"
PREALLOC = "prealloc"

STRATEGIES = (DYNAMIC, TWO_PASS, PREALLOC)


class MemoryPool:
    """The block pool + scheduler of Optimization 1."""

    def __init__(
        self,
        platform: GpuPlatform,
        pool_bytes: int,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        tag: str = "memory-pool",
    ) -> None:
        if block_bytes <= 0:
            raise ExecutionError("block size must be positive")
        if pool_bytes < block_bytes:
            raise ExecutionError("pool must hold at least one block")
        self.platform = platform
        self.block_bytes = block_bytes
        self.num_blocks = pool_bytes // block_bytes
        self._allocation = platform.device.allocate(
            self.num_blocks * block_bytes, tag
        )
        self.blocks_served = 0
        self.wasted_bytes = 0

    def write_extension_results(
        self, per_warp_bytes: np.ndarray
    ) -> None:
        """Account one extension's result writes.

        ``per_warp_bytes[w]`` is the number of result bytes warp ``w``
        produced.  Charges: block-allocation scheduler contention (serial),
        device-bandwidth writes, and records tail waste.  Blocks recycle
        through flushes, so the pool bounds *in-flight* buffering, not total
        output.
        """
        per_warp_bytes = np.asarray(per_warp_bytes, dtype=np.int64)
        if len(per_warp_bytes) == 0 or per_warp_bytes.sum() == 0:
            return
        res = self.platform.resilience
        if res.active:
            # Injection site for pool_exhausted faults (the scheduler denies
            # a block request, surfacing as MemoryPoolExhausted).
            res.io("pool:alloc")
        blocks_per_warp = -(-per_warp_bytes // self.block_bytes)
        total_blocks = int(blocks_per_warp.sum())
        waste = int((blocks_per_warp * self.block_bytes - per_warp_bytes).sum())
        self.blocks_served += total_blocks
        self.wasted_bytes += waste
        counters = self.platform.counters
        counters.add(st.MEMORY_BLOCKS_ALLOCATED, total_blocks)
        counters.add(st.MEMORY_BLOCKS_WASTED_BYTES, waste)
        # Scheduler: one serialized atomic per block request.
        self.platform.kernel.launch(
            "pool:alloc", serial_steps=total_blocks * 4
        )
        # The writes themselves, at device bandwidth.
        flush_bytes = int(per_warp_bytes.sum())
        self.platform.kernel.launch(
            "pool:write", device_bytes=flush_bytes
        )
        tel = self.platform.telemetry
        if tel.active:
            tel.metric("pool.flush_bytes", flush_bytes)
            tel.metric("pool.flush_blocks", total_blocks)
            tel.metric("pool.flush_waste_bytes", waste)

    def release(self) -> None:
        if self._allocation.live:
            self.platform.device.free(self._allocation)


class WriteStrategy:
    """How an engine resolves the parallel write conflict of Challenge 1.

    Subclasses charge the cost of laying out ``per_row_counts`` results
    (``itemsize`` bytes each) produced by an extension kernel whose compute
    cost is ``kernel_ops`` — the strategy decides whether that kernel runs
    once or twice and what memory it needs.
    """

    name: str
    #: How many times the extension traversal (and its graph reads) runs;
    #: the engine multiplies its charged adjacency reads by this.
    passes: int = 1

    def account(
        self,
        per_row_counts: np.ndarray,
        itemsize: int,
        kernel_ops: float,
        upper_bound_counts: np.ndarray | None = None,
    ) -> None:
        raise NotImplementedError


class DynamicAllocStrategy(WriteStrategy):
    """GAMMA: single pass + warp-owned blocks (Optimization 1)."""

    name = DYNAMIC

    def __init__(self, platform: GpuPlatform, pool: MemoryPool) -> None:
        self.platform = platform
        self.pool = pool
        self._grid = WarpGrid(platform.kernel.num_warps, platform.spec.warp_size)

    def account(self, per_row_counts, itemsize, kernel_ops, upper_bound_counts=None):
        per_row_counts = np.asarray(per_row_counts, dtype=np.int64)
        # One extension kernel.
        self.platform.kernel.launch("extend", element_ops=kernel_ops)
        # Intra-warp positions: warp-level prefix scan over lane counts.
        warp_exclusive_scan(
            per_row_counts[: self.platform.spec.warp_size],
            self.platform.clock,
            self.platform.spec,
            self.platform.cost,
        )
        # Warp-level block consumption.
        bounds = self._grid.chunk_bounds(len(per_row_counts))
        if len(per_row_counts):
            cumulative = np.concatenate(
                [[0], np.cumsum(per_row_counts)]
            )
            per_warp = np.diff(cumulative[bounds]) * itemsize
            self.pool.write_extension_results(per_warp)


class TwoPassStrategy(WriteStrategy):
    """Pangolin: run the extension twice — count, exclusive-scan, re-run
    and write ("this method solves the write conflict with an additional
    extension, leading to a severe performance decline")."""

    name = TWO_PASS
    passes = 2

    def __init__(self, platform: GpuPlatform) -> None:
        self.platform = platform

    def account(self, per_row_counts, itemsize, kernel_ops, upper_bound_counts=None):
        per_row_counts = np.asarray(per_row_counts, dtype=np.int64)
        # Pass 1: counting (same traversal work, results discarded).
        self.platform.kernel.launch("extend:count", element_ops=kernel_ops)
        # Global prefix scan over per-row counts (billed; the host writes
        # rows in order and needs no offsets).
        charge_warp_scan(
            len(per_row_counts), self.platform.clock, self.platform.spec,
            self.platform.cost,
        )
        # Pass 2: the real extension, writing to exact offsets.
        total_bytes = int(per_row_counts.sum()) * itemsize
        self.platform.kernel.launch(
            "extend:write", element_ops=kernel_ops, device_bytes=total_bytes
        )


class PreallocStrategy(WriteStrategy):
    """GSI: estimate each row's maximum result count and preallocate —
    single pass, but "the overestimation often causes significant space
    waste" and, on large inputs, device OOM."""

    name = PREALLOC

    def __init__(self, platform: GpuPlatform, tag: str = "prealloc") -> None:
        self.platform = platform
        self.tag = tag

    def account(self, per_row_counts, itemsize, kernel_ops, upper_bound_counts=None):
        per_row_counts = np.asarray(per_row_counts, dtype=np.int64)
        if upper_bound_counts is None:
            upper_bound_counts = per_row_counts
        upper = int(np.asarray(upper_bound_counts, dtype=np.int64).sum())
        # Worst-case space for one pass.  GSI processes join steps in
        # chunks, so a single prealloc is capped at a quarter of the device;
        # the waste still shows in peak memory, and truly large runs die
        # anyway when the (device-resident) result table overflows.
        alloc_bytes = min(upper * itemsize, self.platform.device.capacity // 4)
        allocation = self.platform.device.allocate(alloc_bytes, self.tag)
        self.platform.kernel.launch(
            "extend:prealloc",
            element_ops=kernel_ops,
            device_bytes=int(per_row_counts.sum()) * itemsize,
        )
        # The "combine" pass: scan the (mostly empty) worst-case space to
        # collect the real results into a dense table.
        self.platform.kernel.launch(
            "extend:combine", element_ops=upper, device_bytes=upper * itemsize
        )
        self.platform.device.free(allocation)


def make_write_strategy(
    strategy: str, platform: GpuPlatform, pool: MemoryPool | None = None
) -> WriteStrategy:
    """Factory keyed by the Fig. 17/18 ablation names."""
    if strategy == DYNAMIC:
        if pool is None:
            raise ExecutionError("dynamic allocation needs a memory pool")
        return DynamicAllocStrategy(platform, pool)
    if strategy == TWO_PASS:
        return TwoPassStrategy(platform)
    if strategy == PREALLOC:
        return PreallocStrategy(platform)
    raise ExecutionError(f"unknown write strategy {strategy!r}; use {STRATEGIES}")
