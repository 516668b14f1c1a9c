"""Graphlet census: connected *induced* k-vertex subgraphs by class.

Motif counting (:mod:`repro.algorithms.motif`) counts subgraphs by their
edge set; network science usually wants *graphlets* — induced subgraphs,
where absent edges matter (an induced wedge is a wedge whose closing edge
is absent).  The census:

1. enumerates every connected k-vertex set once, growing a v-ET with the
   union-neighborhood extension (Definition 3.1's ``N_v(M)``), anchored at
   the set's minimum vertex and deduplicated per level;
2. probes the graph for every pair among the k vertices (vectorized
   ``has_edges``) to get the induced edge bitmask;
3. canonicalizes each distinct (bitmask, label vector) once and histograms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ExecutionError
from ..graph.canonical import canonical_code_int


@dataclass
class GraphletResult:
    """Census outcome: canonical code -> number of induced occurrences."""

    k: int
    histogram: dict
    total: int
    simulated_seconds: float
    peak_memory_bytes: int


def _dedup_vertex_sets(engine, table) -> None:
    """Drop rows that repeat an already-seen vertex set (growth-order
    duplicates)."""
    engine.dedup(table)


def graphlet_census(engine, k: int) -> GraphletResult:
    """Count all connected induced ``k``-vertex subgraphs by class."""
    if not 2 <= k <= 5:
        raise ExecutionError("graphlet census supports 2 <= k <= 5")
    start = engine.simulated_seconds
    graph = engine.graph
    table = engine.new_vertex_table(f"graphlets:{k}")
    engine.seed_vertices(table)
    for depth in range(1, k):
        # New vertex adjacent to ANY current vertex and larger than the
        # set's minimum (column 0), so each set grows from its min vertex.
        engine.vertex_extension_any(
            table,
            anchor_cols=list(range(depth)),
            greater_than_col=0,
        )
        _dedup_vertex_sets(engine, table)

    mats = table.materialize()
    histogram = _classify_induced(engine, graph, mats, k)
    result = GraphletResult(
        k=k,
        histogram=histogram,
        total=int(sum(histogram.values())),
        simulated_seconds=engine.simulated_seconds - start,
        peak_memory_bytes=engine.peak_memory_bytes,
    )
    table.release()
    return result


def _classify_induced(engine, graph, mats: np.ndarray, k: int) -> Dict[int, int]:
    """Histogram rows by the canonical class of their induced subgraph."""
    if len(mats) == 0:
        return {}
    pairs = list(itertools.combinations(range(k), 2))
    # Induced-edge bitmask per row (vectorized adjacency probes).
    bitmask = np.zeros(len(mats), dtype=np.int64)
    probe_ops = 0
    for bit, (i, j) in enumerate(pairs):
        present = graph.has_edges(mats[:, i], mats[:, j])
        bitmask |= present.astype(np.int64) << bit
        probe_ops += len(mats)
    _charge(engine, probe_ops * 8)

    # Pack (bitmask, labels in column order) into one key per row.
    num_labels = max(1, graph.num_labels)
    labels = graph.labels[mats]  # (n, k)
    key = bitmask
    for col in range(k):
        key = key * num_labels + labels[:, col]
    uniq, counts = np.unique(key, return_counts=True)
    _charge(engine, len(mats) * int(np.log2(max(2, len(mats)))))

    histogram: Dict[int, int] = {}
    for packed, count in zip(uniq.tolist(), counts.tolist()):
        code = _canonical_of_packed(packed, k, num_labels, pairs)
        histogram[code] = histogram.get(code, 0) + int(count)
    return histogram


def _canonical_of_packed(packed: int, k: int, num_labels: int, pairs) -> int:
    labels = []
    for __ in range(k):
        labels.append(packed % num_labels)
        packed //= num_labels
    labels.reverse()
    bitmask = packed
    edges = [pairs[bit] for bit in range(len(pairs)) if bitmask >> bit & 1]
    return canonical_code_int(edges, labels)


def _charge(engine, ops: int) -> None:
    platform = engine.platform
    if getattr(engine, "_is_cpu", False):
        platform.cpu.work(ops)
    else:
        platform.kernel.launch("graphlets:classify", element_ops=ops)
