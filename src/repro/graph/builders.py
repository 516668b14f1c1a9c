"""Safe construction of :class:`~repro.graph.csr.CSRGraph` from raw inputs.

All GPM systems in the paper preprocess graphs the same way: drop self
loops, deduplicate parallel edges, symmetrize to an undirected graph, and
sort adjacency lists.  These builders perform that normalization with
vectorized NumPy so multi-million-edge stand-ins build in milliseconds.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidGraphError
from .csr import _PACK_VERTEX_LIMIT, CSRGraph


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

    # Canonicalize each edge as (min, max), drop self loops, deduplicate.
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    if len(lo):
        keys = (lo << 32) | hi
        keys = np.unique(keys)
        lo = keys >> 32
        hi = keys & 0xFFFFFFFF
    edge_src, edge_dst = lo, hi
    num_edges = len(edge_src)

    # Symmetrize: each undirected edge contributes two adjacency slots that
    # share an edge id.
    heads = np.concatenate([edge_src, edge_dst])
    tails = np.concatenate([edge_dst, edge_src])
    slot_edge_ids = np.concatenate([np.arange(num_edges)] * 2).astype(np.int64)

    # Sort slots by (head, tail) to get sorted adjacency lists.
    order = np.lexsort((tails, heads))
    heads, tails, slot_edge_ids = heads[order], tails[order], slot_edge_ids[order]

    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(heads, minlength=num_vertices) if len(heads) else np.zeros(
        num_vertices, dtype=np.int64
    )
    offsets[1:] = np.cumsum(counts)

    return CSRGraph(
        offsets=offsets,
        neighbors=tails,
        edge_ids=slot_edge_ids,
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
