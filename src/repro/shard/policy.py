"""Level-0 frontier partitioning policies for sharded execution.

A policy assigns every level-0 extension unit (a vertex for v-ET
workloads, an edge for e-ET workloads) to one of ``num_shards`` simulated
GPUs.  The assignment fixes which shard *owns* each unit: each shard seeds
the full frontier, then filters down to its owned units, so every
embedding is grown by exactly one shard (duplicate discoveries that cross
shard boundaries are reconciled by the exchange step in
:class:`repro.core.framework.Gamma`).

Three policies, mirroring the scale-out literature:

* ``static`` — contiguous equal-count ranges (G²Miner's vertex-range
  partitioning).  Cheapest to compute; skew follows the graph's degree
  ordering.
* ``degree`` — LPT over per-unit degree weight: units are assigned,
  heaviest first, to the currently lightest shard.  Balances adjacency
  *reads*, scatters ownership.
* ``stealing`` — chunked work stealing, simulated deterministically:
  the frontier is cut into ``STEAL_CHUNKS_PER_SHARD`` chunks per shard and
  chunks are claimed in order by the shard with the least accumulated
  weight — the steady-state schedule an idle-steal runtime converges to
  (Khuzdul-style embedding partitioning at chunk granularity).

All policies are pure functions of (graph, num_shards): no RNG, no wall
clock, so sharded runs stay bit-reproducible.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ExecutionError
from ..graph.csr import CSRGraph

STATIC = "static"
DEGREE = "degree"
STEALING = "stealing"
SHARD_POLICIES = (STATIC, DEGREE, STEALING)

#: Chunks per shard for the simulated work-stealing schedule.  More chunks
#: track the dynamic schedule more closely at the cost of more (simulated)
#: claim operations.
STEAL_CHUNKS_PER_SHARD = 16

VERTEX_UNITS = "vertex"
EDGE_UNITS = "edge"


def _unit_weights(graph: CSRGraph, units: str) -> np.ndarray:
    """Work estimate per level-0 unit: the adjacency volume an extension
    from that unit reads (1 + degree, so isolated vertices still cost)."""
    degrees = (graph.offsets[1:] - graph.offsets[:-1]).astype(np.int64)
    if units == VERTEX_UNITS:
        return 1 + degrees
    if units == EDGE_UNITS:
        src, dst = graph.edge_src, graph.edge_dst
        return 1 + degrees[src] + degrees[dst]
    raise ExecutionError(f"unknown unit kind {units!r}")


def _num_units(graph: CSRGraph, units: str) -> int:
    return graph.num_vertices if units == VERTEX_UNITS else graph.num_edges


def assign_static(graph: CSRGraph, num_shards: int, units: str) -> np.ndarray:
    """Contiguous equal-count ranges of unit ids."""
    n = _num_units(graph, units)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    bounds = np.linspace(0, n, num_shards + 1).astype(np.int64)
    assignment = np.empty(n, dtype=np.int64)
    for shard in range(num_shards):
        assignment[bounds[shard]:bounds[shard + 1]] = shard
    return assignment


def assign_degree(graph: CSRGraph, num_shards: int, units: str) -> np.ndarray:
    """Longest-processing-time-first over per-unit degree weight: each
    unit, heaviest first (ties in id order), goes to the least loaded
    shard, the lowest id among equals — a heap of ``(load, shard)``."""
    weights = _unit_weights(graph, units)
    order = np.argsort(-weights, kind="stable")
    shards = []
    loads = [(0, shard) for shard in range(num_shards)]
    for weight in weights.take(order).tolist():
        load, shard = loads[0]
        shards.append(shard)
        heapq.heapreplace(loads, (load + weight, shard))
    assignment = np.empty(len(weights), dtype=np.int64)
    assignment[order] = shards
    return assignment


def assign_stealing(graph: CSRGraph, num_shards: int, units: str) -> np.ndarray:
    """Deterministic replay of a chunked idle-steal schedule."""
    weights = _unit_weights(graph, units)
    n = len(weights)
    assignment = np.empty(n, dtype=np.int64)
    if n == 0:
        return assignment
    num_chunks = min(n, num_shards * STEAL_CHUNKS_PER_SHARD)
    bounds = np.linspace(0, n, num_chunks + 1).astype(np.int64)
    loads = np.zeros(num_shards, dtype=np.int64)
    for chunk in range(num_chunks):
        lo, hi = int(bounds[chunk]), int(bounds[chunk + 1])
        if lo == hi:
            continue
        # The idle-most shard claims the next chunk off the shared queue.
        shard = int(np.argmin(loads))
        assignment[lo:hi] = shard
        loads[shard] += int(weights[lo:hi].sum())
    return assignment


_POLICY_FNS = {
    STATIC: assign_static,
    DEGREE: assign_degree,
    STEALING: assign_stealing,
}


def assign_units(
    graph: CSRGraph, num_shards: int, units: str, policy: str
) -> np.ndarray:
    """Shard id per level-0 unit under ``policy`` (see module docs).

    Computed once per graph and kept on it, read-only: every engine over
    the graph, front and partitions alike, reads the same array."""
    if policy not in SHARD_POLICIES:
        raise ExecutionError(
            f"shard policy must be one of {SHARD_POLICIES}, got {policy!r}"
        )
    if num_shards < 1:
        raise ExecutionError("num_shards must be >= 1")
    if units not in (VERTEX_UNITS, EDGE_UNITS):
        raise ExecutionError(f"unknown unit kind {units!r}")
    if num_shards == 1:
        return np.zeros(_num_units(graph, units), dtype=np.int64)
    return graph.derived(
        ("shard-units", num_shards, units, policy),
        lambda: _POLICY_FNS[policy](graph, num_shards, units))
