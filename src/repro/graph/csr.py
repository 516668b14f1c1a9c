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

#: Hub rows take at most this many bytes per byte of ``adjacency_keys``, so
#: the probe structure is bounded by the graph's edges, never by ``V**2``.
_HUB_BYTES_PER_KEY_BYTE = 2

#: Vertex-id ceiling for the packed (u << 32 | v) edge keys: both halves
#: must fit in 32 bits for the key to fit in one int64.
_PACK_VERTEX_LIMIT = 1 << 31


class CSRGraph:
    """An undirected, vertex-labeled graph in CSR form.

    Array shapes, the sortedness of the adjacency lists and the absence of
    self loops are checked; that ``edge_ids``/``edge_src``/``edge_dst``
    describe the same edges as ``neighbors`` is trusted.  Use
    :func:`repro.graph.builders.from_edges` to build one safely from raw
    edge lists.
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
        owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self.adjacency_keys = self._pack_pairs(owners, self.neighbors)
        unsorted = np.flatnonzero(
            self.adjacency_keys[1:] <= self.adjacency_keys[:-1]
        )
        if len(unsorted):
            raise InvalidGraphError(
                "adjacency lists must be strictly ascending; vertex "
                f"{int(self.adjacency_keys[unsorted[0]] >> 32)}'s is not"
            )
        #: No vertex lists itself, so a vertex drawn from ``N(a)``, or
        #: adjacent to ``a``, is never ``a``: extension relies on it.
        loops = np.flatnonzero(owners == self.neighbors)
        if len(loops):
            raise InvalidGraphError(
                f"edge {int(self.edge_ids[loops[0]])} is a self loop")
        self._hubs: tuple[np.ndarray, np.ndarray] | None = None
        self._slots: tuple[np.ndarray, np.ndarray, bool] | None = None
        self._degrees: np.ndarray | None = None
        self._above: np.ndarray | None = None
        self._derived: dict = {}

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

    def degree_table(self) -> np.ndarray:
        """:attr:`degrees`, computed once and read-only: one gather per
        lookup."""
        if self._degrees is None:
            self._degrees = self.degrees
            self._degrees.flags.writeable = False
        return self._degrees

    def slots_above(self) -> np.ndarray:
        """Lazily-built ``above``: ``above[v]`` is the slot of ``v``'s first
        neighbour above ``v`` (``offsets[v + 1]`` when it has none), where
        ``N(v)`` cut above ``v`` starts — the lower bound an id-ordered
        extension asks of a row's own list."""
        if self._above is None:
            ids = np.arange(self.num_vertices, dtype=np.int64)
            self._above = np.searchsorted(
                self.adjacency_keys, self._pack_pairs(ids, ids), side="right")
            self._above.flags.writeable = False
        return self._above

    def derived(self, key, build) -> np.ndarray:
        """An array other packages derive from this graph alone (the shard
        policies' unit assignments), named by ``key``: ``build()`` on first
        call, then kept, read-only, as :meth:`degree_table` is."""
        table = self._derived.get(key)
        if table is None:
            table = build()
            table.flags.writeable = False
            self._derived[key] = table
        return table

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

    def edge_slots(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Lazily-built ``(low_slot, high_slot, ids_ascend)``: edge ``e``
        sits at ``low_slot[e]`` in its lower endpoint's adjacency list and
        at ``high_slot[e]`` in its upper one's (edges join two distinct
        vertices: the constructor refuses a self loop).  ``ids_ascend``
        says every list also ascends by edge id, which ``from_edges``'
        layout (lower neighbours, then upper) gives and a hand-built CSR
        need not."""
        if self._slots is None:
            owner = self.adjacency_keys >> 32
            low = owner < self.neighbors
            low_slot = np.empty(self.num_edges, dtype=np.int64)
            high_slot = np.empty(self.num_edges, dtype=np.int64)
            low_slot[self.edge_ids[low]] = np.flatnonzero(low)
            high_slot[self.edge_ids[~low]] = np.flatnonzero(~low)
            same_list = owner[1:] == owner[:-1]
            ids_ascend = bool(np.all(
                self.edge_ids[1:][same_list] > self.edge_ids[:-1][same_list]))
            self._slots = low_slot, high_slot, ids_ascend
        return self._slots

    # -- adjacency queries ------------------------------------------------------
    def _pack_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (np.asarray(u, dtype=np.int64) << 32) | np.asarray(v, dtype=np.int64)  # __init__ rejects graphs with >= 2**31 vertices, so both halves fit

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(np.array([u]), np.array([v]))[0])

    def _hub_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazily-built packed adjacency rows of the highest-degree vertices,
        as ``(row_base, bits)``.

        A hub ``u`` adjoins ``v`` exactly when bit ``row_base[u] + v`` of
        ``bits`` is set; every other vertex's ``row_base`` is -1.  Vertices
        take rows in descending degree order (ties by id) while the rows
        fit in ``_HUB_BYTES_PER_KEY_BYTE`` times ``adjacency_keys.nbytes``,
        so on a skewed graph a small fraction of the vertices anchor
        almost every probe.  ``bits`` is empty when not even one row fits.
        """
        if self._hubs is None:
            n = self.num_vertices
            budget_bits = _HUB_BYTES_PER_KEY_BYTE * self.adjacency_keys.nbytes * 8
            count = min(n, budget_bits // max(n, 1))
            row_base = np.full(n, -1, dtype=np.int64)
            row_base[np.argsort(-self.degrees, kind="stable")[:count]] = (
                np.arange(count, dtype=np.int64) * n
            )
            base = row_base[self.adjacency_keys >> 32]
            slot = base >= 0
            pos = base[slot] + self.neighbors[slot]
            bits = np.zeros((count * n + 7) // 8, dtype=np.uint8)
            np.bitwise_or.at(
                bits, pos >> 3,
                np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8)),
            )
            self._hubs = row_base, bits
        return self._hubs

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test for aligned endpoint arrays.

        A probe answers from ``u``'s hub row, else from ``v``'s (the graph
        is undirected), else by binary search over ``adjacency_keys``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        row_base, bits = self._hub_rows()
        if not len(bits):
            return self._search(u, v)
        found, miss = _row_bits(row_base, bits, u, v)
        if len(miss):
            found[miss], left = _row_bits(row_base, bits, v[miss], u[miss])
            tail = miss[left]
            found[tail] = self._search(u[tail], v[tail])
        return found

    def _search(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Binary-search adjacency test over the packed edge keys."""
        keys = self._pack_pairs(u, v)
        if len(self.adjacency_keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.searchsorted(self.adjacency_keys, keys)
        pos = np.minimum(pos, len(self.adjacency_keys) - 1)
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


def _row_bits(
    row_base: np.ndarray, bits: np.ndarray, u: np.ndarray, v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(found, miss)``: bit ``(u, v)`` of ``u``'s hub row per probe, and the
    indices of the probes whose ``u`` has no row.

    A miss reads the bit ``v - 1`` from the start of ``bits`` (index -1
    wraps to its last byte), which holds since ``bits`` has at least one
    row: its ``found`` entry is meaningless and left for the caller to
    overwrite.  The ops run in place on ``pos`` and two byte arrays.
    """
    pos = row_base.take(u)
    miss = np.flatnonzero(pos < 0)
    pos += v
    shift = pos.astype(np.uint8)
    shift &= 7
    pos >>= 3
    byte = bits.take(pos)
    byte >>= shift
    byte &= 1
    return byte.view(bool), miss
