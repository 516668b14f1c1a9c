"""Safe construction of :class:`~repro.graph.csr.CSRGraph` from raw inputs.

All GPM systems in the paper preprocess graphs the same way: drop self
loops, deduplicate parallel edges, symmetrize to an undirected graph, and
sort adjacency lists.  These builders do it with one value sort of the
packed edge keys and one argsort of the unique ones: on a 2-core x86 host
SL*5's 327 k edges take ~46 ms and UK's 1.6 M input edges ~0.19 s.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidGraphError
from .csr import _PACK_VERTEX_LIMIT, CSRGraph
from .groupby import _run_starts


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    labels: np.ndarray | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build an undirected CSR graph from (possibly messy) edge arrays.

    Self loops are removed; duplicate and reverse-duplicate edges collapse
    to one undirected edge.  ``num_vertices`` defaults to ``max id + 1``.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise InvalidGraphError("src/dst arrays must have equal length")
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise InvalidGraphError("vertex ids must be non-negative")

    max_id = int(max(src.max(), dst.max())) + 1 if len(src) else 0
    if num_vertices is None:
        num_vertices = max_id
    elif num_vertices < max_id:
        raise InvalidGraphError(
            f"num_vertices={num_vertices} smaller than max id {max_id - 1}"
        )
    if num_vertices >= _PACK_VERTEX_LIMIT:
        # Checked here, not left to CSRGraph: the (lo << 32) | hi keys below
        # would wrap and the offsets array alone would take gigabytes.
        raise InvalidGraphError(
            f"{num_vertices} vertices exceed the packed edge-key limit "
            f"({_PACK_VERTEX_LIMIT - 1})"
        )

    # Canonicalize each edge as (min, max), drop self loops, deduplicate by
    # a value sort of the packed keys.
    keep = src != dst
    keys = np.sort((np.minimum(src[keep], dst[keep]) << 32) | np.maximum(src[keep], dst[keep]))
    keys = keys[_run_starts(keys)]
    edge_src, edge_dst = keys >> 32, keys & 0xFFFFFFFF
    num_edges = len(keys)

    # Symmetrize: vertex u's ascending list is its lower neighbours (edges
    # (w, u), w < u) then its upper ones (edges (u, w), already in key
    # order), so only the lower halves are sorted: one argsort by (dst, src),
    # which unique keys make deterministic.  A slot is its rank within its
    # half plus the other half's slots before it: for an upper slot the
    # lower slots of vertices up to its owner, for a lower slot the upper
    # slots of vertices below it.
    lower = np.argsort((edge_dst << 32) | edge_src)
    lower_through = np.cumsum(np.bincount(edge_dst, minlength=num_vertices))
    upper_counts = np.bincount(edge_src, minlength=num_vertices)
    upper_before = np.cumsum(upper_counts) - upper_counts
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    offsets[1:] = lower_through + upper_before + upper_counts
    ranks = np.arange(num_edges)
    upper_slots = ranks + lower_through[edge_src]
    lower_slots = ranks + upper_before[edge_dst[lower]]
    neighbors = np.empty(2 * num_edges, dtype=np.int64)
    edge_ids = np.empty(2 * num_edges, dtype=np.int64)
    neighbors[upper_slots], edge_ids[upper_slots] = edge_dst, ranks
    neighbors[lower_slots], edge_ids[lower_slots] = edge_src[lower], lower

    return CSRGraph(
        offsets=offsets,
        neighbors=neighbors,
        edge_ids=edge_ids,
        edge_src=edge_src,
        edge_dst=edge_dst,
        labels=labels,
        name=name,
    )


def from_edge_list(
    edges: list[tuple[int, int]],
    num_vertices: int | None = None,
    labels: np.ndarray | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build from a Python list of ``(u, v)`` pairs (test convenience)."""
    if edges:
        arr = np.asarray(edges, dtype=np.int64)
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = dst = np.empty(0, dtype=np.int64)
    return from_edges(src, dst, num_vertices=num_vertices, labels=labels, name=name)


def from_networkx(nx_graph, labels_attr: str | None = None, name: str = "graph"):
    """Convert a ``networkx`` graph (used by tests as an oracle bridge)."""
    nodes = sorted(nx_graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
    labels = None
    if labels_attr is not None:
        labels = np.array(
            [nx_graph.nodes[v].get(labels_attr, 0) for v in nodes], dtype=np.int64
        )
    return from_edge_list(edges, num_vertices=len(nodes), labels=labels, name=name)


def relabel_vertices(graph: CSRGraph, labels: np.ndarray) -> CSRGraph:
    """Return a copy of ``graph`` with new vertex labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != graph.num_vertices:
        raise InvalidGraphError("label array must cover every vertex")
    return CSRGraph(
        offsets=graph.offsets,
        neighbors=graph.neighbors,
        edge_ids=graph.edge_ids,
        edge_src=graph.edge_src,
        edge_dst=graph.edge_dst,
        labels=labels,
        name=graph.name,
    )
