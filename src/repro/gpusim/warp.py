"""Warp-level execution helpers.

The paper leans on three warp facts (§II-A): threads in a warp run in SIMT
lock-step (intra-warp sync is free), warps are the unit of memory-block
ownership in Optimization 1, and "hundreds of active warps" bound allocator
contention.  This module provides the warp abstractions the engines use:
task partitioning across warps, warp-level exclusive prefix scan (the
intra-warp write-conflict resolution of Challenge 1), and ballot.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from . import clock as clk
from .clock import SimClock
from .spec import CostModel, DeviceSpec


class WarpGrid:
    """Assignment of a task list to the device's active warps.

    Tasks are dealt out in contiguous chunks, mirroring a grid-stride loop.
    ``partition(n)`` yields ``(warp_id, start, stop)`` triples covering
    ``[0, n)``; warps with no work are skipped.
    """

    def __init__(self, num_warps: int, warp_size: int = 32) -> None:
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        self.num_warps = num_warps
        self.warp_size = warp_size

    def partition(self, n_tasks: int) -> Iterator[Tuple[int, int, int]]:
        if n_tasks < 0:
            raise ValueError("n_tasks must be >= 0")
        if n_tasks == 0:
            return
        per_warp = -(-n_tasks // self.num_warps)
        for warp_id in range(min(self.num_warps, n_tasks)):
            start = warp_id * per_warp
            stop = min(start + per_warp, n_tasks)
            if start >= stop:
                return
            yield warp_id, start, stop

    def chunk_bounds(self, n_tasks: int) -> np.ndarray:
        """Chunk boundaries as an array ``[b0, b1, ..., bk]`` with
        ``b0 = 0`` and ``bk = n_tasks``."""
        bounds = [0]
        for __, __, stop in self.partition(n_tasks):
            bounds.append(stop)
        if not bounds or bounds[-1] != n_tasks:
            bounds.append(n_tasks)
        return np.asarray(bounds, dtype=np.int64)


def warp_exclusive_scan(
    values: np.ndarray,
    clock: SimClock | None = None,
    spec: DeviceSpec | None = None,
    cost: CostModel | None = None,
) -> Tuple[np.ndarray, int]:
    """Warp-level exclusive prefix scan.

    Returns ``(scan, total)``.  If a clock is supplied, charges the
    ``log2(warp_size)`` shuffle steps a hardware warp scan costs — this is
    how intra-warp write positions are resolved at "minimum cost"
    (Optimization 1 discussion).
    """
    values = np.asarray(values, dtype=np.int64)
    total = int(values.sum())
    scan = np.zeros_like(values)
    if len(values) > 1:
        scan[1:] = np.cumsum(values[:-1])
    if clock is not None and spec is not None and cost is not None:
        charge_warp_scan(len(values), clock, spec, cost)
    return scan, total


def charge_warp_scan(
    length: int, clock: SimClock, spec: DeviceSpec, cost: CostModel
) -> None:
    """Bill :func:`warp_exclusive_scan` over ``length`` values without
    running it, for callers whose host code needs no scan."""
    if length:
        steps = max(1, int(np.ceil(np.log2(spec.warp_size))))
        n_warps = -(-length // spec.warp_size)
        ops = n_warps * spec.warp_size * steps
        clock.advance(clk.COMPUTE, ops / cost.gpu_ops_per_second(spec))


def warp_ballot(predicate: np.ndarray) -> int:
    """Ballot: pack up to 32 lane predicates into a mask (free in SIMT)."""
    predicate = np.asarray(predicate, dtype=bool)
    if len(predicate) > 32:
        raise ValueError("a ballot covers at most one warp (32 lanes)")
    mask = 0
    for lane, active in enumerate(predicate):
        if active:
            mask |= 1 << lane
    return mask
