"""Compressed Sparse Row graph representation.

GAMMA stores the data graph as CSR adjacency lists plus vertex labels — "no
auxiliary data structures other than structural information and labels"
(paper §IV).  Graphs are undirected: every edge appears in both endpoint
adjacency lists, and the two slots share one *edge id* so edge-oriented
embedding tables (e-ET) can refer to edges compactly.

Adjacency lists are sorted ascending, enabling binary-search adjacency
checks and linear-time sorted intersections — the operations GAMMA's
complexity analysis (§V-C) counts.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import InvalidGraphError

#: Cap on the lazily-built adjacency bitset (``V**2`` bits).  512 MB covers
#: every dataset stand-in with head-room while bounding the footprint on
#: user-supplied graphs; larger graphs keep the sorted-key binary search.
_BITSET_MAX_BYTES = 512 * 1024 * 1024

#: Vertex-id ceiling for the packed (u << 32 | v) edge keys: both halves
#: must fit in 32 bits for the key to fit in one int64.
_PACK_VERTEX_LIMIT = 1 << 31


class CSRGraph:
    """An undirected, vertex-labeled graph in CSR form.

    Array shapes and the sortedness of the adjacency lists are checked;
    that ``edge_ids``/``edge_src``/``edge_dst`` describe the same edges as
    ``neighbors`` is trusted.  Use :func:`repro.graph.builders.from_edges`
    to build one safely from raw edge lists.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        edge_ids: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        labels: np.ndarray | None = None,
        name: str = "graph",
    ) -> None:
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.neighbors = np.ascontiguousarray(neighbors, dtype=np.int64)
        self.edge_ids = np.ascontiguousarray(edge_ids, dtype=np.int64)
        self.edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        self.edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        self.name = name
        n = len(self.offsets) - 1
        if n < 0:
            raise InvalidGraphError("offsets must have at least one entry")
        if n >= _PACK_VERTEX_LIMIT:
            raise InvalidGraphError(
                f"{n} vertices exceed the packed edge-key limit "
                f"({_PACK_VERTEX_LIMIT - 1}); edge keys pack (u, v) into "
                "one int64"
            )
        if labels is None:
            labels = np.zeros(n, dtype=np.int64)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        if len(self.labels) != n:
            raise InvalidGraphError(
                f"labels length {len(self.labels)} != num vertices {n}"
            )
        if len(self.neighbors) != len(self.edge_ids):
            raise InvalidGraphError("neighbors and edge_ids must align")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.neighbors):
            raise InvalidGraphError("offsets must span the adjacency array")
        degrees = np.diff(self.offsets)
        if np.any(degrees < 0):
            raise InvalidGraphError("offsets must be non-decreasing")
        #: ``adjacency_keys[i] == (u << 32) | neighbors[i]`` for the vertex
        #: ``u`` owning slot ``i``: strictly ascending exactly when every
        #: adjacency list is, which binary-search adjacency checks and
        #: ordering-bounded extension both rely on.
        self.adjacency_keys = self._pack_pairs(
            np.repeat(np.arange(n, dtype=np.int64), degrees), self.neighbors,
        )
        unsorted = np.flatnonzero(
            self.adjacency_keys[1:] <= self.adjacency_keys[:-1]
        )
        if len(unsorted):
            raise InvalidGraphError(
                "adjacency lists must be strictly ascending; vertex "
                f"{int(self.adjacency_keys[unsorted[0]] >> 32)}'s is not"
            )
        self._bitset: np.ndarray | None = None

    # -- basic shape ----------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge counted once)."""
        return len(self.edge_src)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def max_degree(self) -> int:
        degs = self.degrees
        return int(degs.max()) if len(degs) else 0

    @property
    def num_labels(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` (host-side view, not charged)."""
        return self.neighbors[self.offsets[v]: self.offsets[v + 1]]

    def incident_edges_of(self, v: int) -> np.ndarray:
        """Edge ids incident to ``v`` in adjacency order."""
        return self.edge_ids[self.offsets[v]: self.offsets[v + 1]]

    def label_of(self, v: int) -> int:
        return int(self.labels[v])

    # -- adjacency queries ------------------------------------------------------
    def _pack_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (np.asarray(u, dtype=np.int64) << 32) | np.asarray(v, dtype=np.int64)  # gammalint: allow[overflow] -- __init__ rejects graphs with >= 2**31 vertices, so both halves fit

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(np.array([u]), np.array([v]))[0])

    def _adjacency_bitset(self) -> np.ndarray | None:
        """Lazily-built ``V x V`` adjacency bitset, or ``None`` when the
        graph is too large.

        Adjacency probing is the inner loop of vertex extension; a packed
        bitset answers each probe with one byte load instead of a
        ``log(2E)`` binary search, and candidate lists are sorted, so
        consecutive probes share cache lines.
        """
        bits = self._bitset
        if bits is None:
            n = self.num_vertices
            if n == 0 or n * n > _BITSET_MAX_BYTES * 8:
                return None
            pos = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.offsets)
            ) * n
            pos += self.neighbors
            bits = np.zeros((n * n + 7) // 8, dtype=np.uint8)
            np.bitwise_or.at(
                bits,
                pos >> 3,
                np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8)),
            )
            self._bitset = bits
        return bits

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test for aligned endpoint arrays."""
        bits = self._adjacency_bitset()
        if bits is not None:
            pos = np.asarray(u, dtype=np.int64) * np.int64(self.num_vertices)  # gammalint: allow[overflow] -- bitset exists only when n*n <= _BITSET_MAX_BYTES*8, far inside int64
            pos += np.asarray(v, dtype=np.int64)
            mask = np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8))
            return (bits[pos >> 3] & mask) != 0
        keys = self._pack_pairs(u, v)
        pos = np.searchsorted(self.adjacency_keys, keys)
        pos = np.minimum(pos, len(self.adjacency_keys) - 1)
        if len(self.adjacency_keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        return self.adjacency_keys[pos] == keys

    def edge_endpoints(self, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` endpoint arrays for the given edge ids, with
        ``src < dst`` canonically."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        return self.edge_src[edge_ids], self.edge_dst[edge_ids]

    # -- iteration / conversion --------------------------------------------------
    def edges(self) -> Iterable[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        return zip(self.edge_src.tolist(), self.edge_dst.tolist())

    def storage_bytes(self) -> int:
        """Bytes of the CSR payload (structural info + labels), the quantity
        the paper estimates at 10–15 GB per billion edges (§IV)."""
        return (
            self.offsets.nbytes
            + self.neighbors.nbytes
            + self.edge_ids.nbytes
            + self.labels.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, labels={self.num_labels})"
        )
