"""Brute-force reference counters for differential testing.

Every function here recounts a mining result by direct enumeration over the
graph's adjacency structure — plain Python sets and recursion, sharing no
code with the extension/aggregation/filtering pipeline under test.  The
only shared component is the canonical *encoder* (histogram keys are
QuickPattern hashes, so comparing histograms requires hashing pattern
classes the same way); the counting logic is independent.

Intended for small graphs (tens of vertices): everything is exponential
and obviously correct rather than fast.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set

import numpy as np

from repro.graph.canonical import QuickPatternEncoder


def adjacency_sets(graph) -> List[Set[int]]:
    """Neighbor sets per vertex, via the CSR arrays directly."""
    adj: List[Set[int]] = [set() for __ in range(graph.num_vertices)]
    for v in range(graph.num_vertices):
        lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
        adj[v].update(int(u) for u in graph.neighbors[lo:hi])
    return adj


def triangle_count_ref(graph) -> int:
    """Unordered triangles, counted once each."""
    return kclique_count_ref(graph, 3)


def kclique_count_ref(graph, k: int) -> int:
    """Unordered k-cliques via ascending-order backtracking."""
    adj = adjacency_sets(graph)

    def grow(clique: List[int], candidates: Set[int]) -> int:
        if len(clique) == k:
            return 1
        total = 0
        for v in sorted(candidates):
            if v > clique[-1]:
                total += grow(clique + [v], candidates & adj[v])
        return total

    return sum(grow([v], adj[v]) for v in range(graph.num_vertices))


def _encode_edge_sets(graph, edge_sets) -> Dict[int, int]:
    """Histogram {canonical code: count} over iterable of edge-id sets."""
    edge_sets = [sorted(s) for s in edge_sets]
    if not edge_sets:
        return {}
    width = len(edge_sets[0])
    ids = np.array(edge_sets, dtype=np.int64).reshape(len(edge_sets), width)
    srcs = graph.edge_src[ids]
    dsts = graph.edge_dst[ids]
    labels = (graph.labels if graph.labels is not None
              else np.zeros(graph.num_vertices, dtype=np.int64))
    codes = QuickPatternEncoder().encode_edge_embeddings(srcs, dsts, labels)
    hist: Dict[int, int] = {}
    for code in codes:
        hist[int(code)] = hist.get(int(code), 0) + 1
    return hist


def motif_histogram_ref(graph, num_edges: int) -> Dict[int, int]:
    """Connected edge-induced subgraphs with exactly ``num_edges`` edges,
    counted once per distinct edge set, keyed by canonical code."""
    incident: List[Set[int]] = [set() for __ in range(graph.num_vertices)]
    for e in range(graph.num_edges):
        incident[int(graph.edge_src[e])].add(e)
        incident[int(graph.edge_dst[e])].add(e)

    frontier: Set[frozenset] = {
        frozenset((e,)) for e in range(graph.num_edges)
    }
    for __ in range(num_edges - 1):
        grown: Set[frozenset] = set()
        for subset in frontier:
            adjacent: Set[int] = set()
            for e in subset:
                adjacent |= incident[int(graph.edge_src[e])]
                adjacent |= incident[int(graph.edge_dst[e])]
            for f in adjacent - subset:
                grown.add(subset | {f})
        frontier = grown
    return _encode_edge_sets(graph, frontier)


def graphlet_histogram_ref(graph, k: int) -> Dict[int, int]:
    """Connected induced ``k``-vertex subgraphs, keyed by canonical code."""
    adj = adjacency_sets(graph)
    edge_id = {}
    for e in range(graph.num_edges):
        u, v = int(graph.edge_src[e]), int(graph.edge_dst[e])
        edge_id[(min(u, v), max(u, v))] = e

    frontier: Set[frozenset] = {
        frozenset((v,)) for v in range(graph.num_vertices)
    }
    for __ in range(k - 1):
        grown: Set[frozenset] = set()
        for subset in frontier:
            reach: Set[int] = set()
            for v in subset:
                reach |= adj[v]
            for u in reach - subset:
                grown.add(subset | {u})
        frontier = grown

    edge_sets = []
    for subset in frontier:
        induced = [
            edge_id[(u, v)]
            for u, v in itertools.combinations(sorted(subset), 2)
            if v in adj[u]
        ]
        edge_sets.append(induced)
    # Group by induced edge count first: encode_edge_sets needs rectangular
    # input, and induced subgraphs differ in edge count.
    hist: Dict[int, int] = {}
    by_width: Dict[int, list] = {}
    for s in edge_sets:
        by_width.setdefault(len(s), []).append(s)
    for group in by_width.values():
        for code, count in _encode_edge_sets(graph, group).items():
            hist[code] = hist.get(code, 0) + count
    return hist


def sm_embedding_count_ref(graph, pattern) -> int:
    """Injective embeddings of ``pattern`` (every vertex ordering counted,
    matching ``SMResult.embeddings``), by backtracking search."""
    adj = adjacency_sets(graph)
    k = pattern.num_vertices
    labeled = pattern.labeled

    def ok(mapping: List[int], q: int, v: int) -> bool:
        if v in mapping:
            return False
        if labeled and int(graph.labels[v]) != pattern.label(q):
            return False
        for prev in range(q):
            if pattern.has_edge(prev, q) and mapping[prev] not in adj[v]:
                return False
        return True

    def extend(mapping: List[int]) -> int:
        q = len(mapping)
        if q == k:
            return 1
        # Anchor to a matched neighbor when one exists to prune the scan.
        anchors = [p for p in range(q) if pattern.has_edge(p, q)]
        candidates = (adj[mapping[anchors[0]]] if anchors
                      else range(graph.num_vertices))
        return sum(
            extend(mapping + [v]) for v in candidates if ok(mapping, q, v)
        )

    return extend([])


def vertex_walk_rows_ref(graph, steps, label=None, injective=True,
                         adjacent=all, rows=None) -> List[tuple]:
    """Rows after seeding every vertex (or starting from ``rows``) and
    applying ``steps`` — each
    ``(anchor_cols, greater_than_cols, less_than_cols)``, or the same with
    a fourth entry, the step's own label in place of ``label`` — by
    scanning all vertices per row.  In the extension's BFS order: rows
    ascending, new vertices ascending within a row.  ``adjacent=any`` is
    the union extension (a neighbor of at least one anchor)."""
    adj = adjacency_sets(graph)
    if rows is None:
        rows = [(v,) for v in range(graph.num_vertices)]
    walk_label = label
    for anchors, greater, less, *own in steps:
        label = own[0] if own else walk_label
        rows = [
            row + (v,)
            for row in rows
            for v in range(graph.num_vertices)
            if adjacent(v in adj[row[c]] for c in anchors)
            and all(v > row[c] for c in greater)
            and all(v < row[c] for c in less)
            and (label is None or int(graph.labels[v]) == label)
            and not (injective and v in row)
        ]
    return rows
