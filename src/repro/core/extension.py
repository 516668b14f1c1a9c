"""The extension primitives (paper §III-B1, §V-B Challenges 1–2).

One :class:`ExtensionEngine` serves every system in the reproduction; what
differs per system is its wiring:

* **results layout** — a :class:`~repro.core.memory_pool.WriteStrategy`
  (GAMMA's dynamic warp-block allocation, Pangolin's two-pass counting, or
  GSI's worst-case prealloc);
* **redundancy** — ``pre_merge=True`` groups embeddings sharing a parent
  and intersects the shared prefix's adjacency lists once per group
  (Optimization 2 / Fig. 8); ``False`` re-intersects every list for every
  embedding;
* **graph residency** — hybrid host memory (GAMMA), device memory
  (in-core baselines) or plain host memory (CPU baselines);
* **executor** — device kernels or CPU threads.

The *computation* is vectorized NumPy and identical across wirings (so all
systems provably produce the same embeddings); the *charged cost* follows
each system's actual algorithm, which is what the paper's figures compare.
Computation reads the CSR host-side; every device-visible access is charged
explicitly from the read multiset the engine derives for its mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..errors import ExecutionError
from ..gpusim import stats as st
from ..gpusim.platform import GpuPlatform
from ..gpusim.regions import expand_ranges
from ..graph.csr import _PACK_VERTEX_LIMIT
from .access_planner import AccessHeatPlanner
from .embedding_table import EDGE, VERTEX, Column, EmbeddingTable, Survivors
from .memory_pool import WriteStrategy
from .residence import GraphResidence

#: Each appended cell is (value, parent) = 16 bytes.
_RESULT_BYTES = 16

#: Host working-set budget of a vertex extension: it finds survivors over
#: contiguous row batches expanding at most this many candidate slots (a
#: row longer than that is a batch of its own); a kept tail-free level
#: expands straight into its output, which it must hold whole anyway.
#: Host-side only: nothing billed depends on it (docs/COSTMODEL.md, "Hot
#: paths").
_BATCH_SLOTS = 1 << 18


def _first_occurrence_mask(
    rows: np.ndarray, values: np.ndarray, modulus: int
) -> np.ndarray:
    """Boolean mask keeping the first occurrence of each (row, value) pair.

    The fast path packs each pair into one int64 key
    (``row * modulus + value``), valid only while the largest key fits in
    int64, and stable-argsorts the keys; past that bound it falls back to
    a stable two-key ``lexsort`` of the unpacked pair.  Either way equal
    pairs keep their input order and ``lead`` picks the earliest, so the
    choice never changes results.  (Candidates arrive grouped by row, so
    the packed keys are nearly sorted and the stable sort merges their
    runs in about one pass — cheaper here than
    :func:`~repro.graph.groupby.first_occurrence`'s value sort, whose cost
    does not depend on the order; docs/COSTMODEL.md, "Hot paths".)
    """
    if len(rows) == 0:
        return np.ones(0, dtype=bool)
    lead = np.ones(len(rows), dtype=bool)
    if int(rows.max()) <= (np.iinfo(np.int64).max - (modulus - 1)) // modulus:
        key = rows * np.int64(modulus) + values
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        np.not_equal(ordered[1:], ordered[:-1], out=lead[1:])
    else:
        order = np.lexsort((values, rows))
        r, v = rows[order], values[order]
        lead[1:] = (r[1:] != r[:-1]) | (v[1:] != v[:-1])
    keep = np.zeros(len(rows), dtype=bool)
    keep[order[lead]] = True
    return keep


def _checked_columns(
    what: str,
    table: EmbeddingTable,
    anchor_cols: Sequence[int],
    greater_than_col: int | None,
    greater_than_cols: Sequence[int],
    less_than_cols: Sequence[int],
    injective: bool,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Validate a vertex extension's column arguments; returns sorted
    distinct anchors, the two ordering-column lists (the
    ``greater_than_col`` shorthand folded in) and the columns the new
    vertex must be checked distinct from."""
    if table.kind != VERTEX:
        raise ExecutionError(f"{what} requires a vertex table")
    anchor_cols = sorted(set(int(c) for c in anchor_cols))
    depth = table.depth
    if not anchor_cols or anchor_cols[-1] >= depth or anchor_cols[0] < 0:
        raise ExecutionError(f"bad anchor columns {anchor_cols} for depth {depth}")
    greater_than_cols = list(greater_than_cols)
    if greater_than_col is not None:
        greater_than_cols.append(int(greater_than_col))
    less_than_cols = list(less_than_cols)
    ordered = greater_than_cols + less_than_cols
    for col in ordered:
        if not 0 <= col < depth:
            raise ExecutionError(f"ordering column {col} out of range")
    # A vertex ordered against a column already differs from it.
    distinct_cols = [c for c in range(depth) if injective and c not in ordered]
    return anchor_cols, greater_than_cols, less_than_cols, distinct_cols


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate int64 arrays; a lone part is returned as is."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _expand_lists(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``values[starts[i]:starts[i] + lengths[i]]`` concatenated as the
    candidates of ``rows[i]``; returns ``(cand, cand_row)``."""
    return values[expand_ranges(starts, starts + lengths)], rows.repeat(lengths)


def _row_batches(slots: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row ranges covering ``slots`` in order, each
    summing to at most :data:`_BATCH_SLOTS` unless it is a single row."""
    ends = np.cumsum(slots)
    bounds = [0]
    while bounds[-1] < len(slots):
        lo = bounds[-1]
        room = (int(ends[lo - 1]) if lo else 0) + _BATCH_SLOTS
        bounds.append(max(lo + 1, int(np.searchsorted(ends, room, side="right"))))
    return list(zip(bounds[:-1], bounds[1:]))


def _bound_ranges(
    keys: np.ndarray,
    owners: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    mats: np.ndarray,
    rows: np.ndarray,
    greater_than_cols: Sequence[int],
    less_than_cols: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Narrow ``(starts, lengths)`` to the values an id-ordering lets live.

    Range ``i`` is the whole list of ``owners[i]`` inside ``keys``, the
    strictly ascending ``(owner << 32) | value`` packing of the array the
    ranges index; what comes back is its slice above every
    ``greater_than_cols`` vertex of ``mats[rows[i]]`` and below every
    ``less_than_cols`` one (empty when they cross).  Billing never sees
    these: it reads the degree table.
    """
    if greater_than_cols:
        low = mats[rows[:, None], greater_than_cols].max(axis=1)
        lower = np.searchsorted(keys, (owners << 32) | low, side="right")  # gammalint: allow[overflow] -- owners are vertex ids (CSRGraph holds < 2**31) or group ids the caller bounds
        starts, lengths = lower, starts + lengths - lower
    if less_than_cols:
        high = mats[rows[:, None], less_than_cols].min(axis=1)
        upper = np.searchsorted(keys, (owners << 32) | high, side="left")  # gammalint: allow[overflow] -- owners are vertex ids (CSRGraph holds < 2**31) or group ids the caller bounds
        lengths = np.maximum(upper - starts, 0)
    return starts, lengths


def _joined(
    parts: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """``(cand, cand_row)`` parts concatenated, in the order given."""
    return _concat([part[0] for part in parts]), _concat([part[1] for part in parts])


def _slice_cuts(
    lm_keys: np.ndarray,
    group_of_row: np.ndarray,
    lm_start: np.ndarray,
    lm_len: np.ndarray,
    mats: np.ndarray,
    tail_greater: Sequence[int],
    tail_less: Sequence[int],
    tail_distinct: bool,
) -> np.ndarray:
    """Per row of ``mats``, the positions of ``L_m`` (packed in ``lm_keys``)
    between which its candidates lie when its tail is not an anchor: its
    group's slice inside the tail ordering bounds, ``[start, end]``, or
    with ``tail_distinct`` the two pieces around the row's own tail vertex,
    ``[start, hole, after_hole, end]`` (an empty piece when the vertex is
    not inside)."""
    tail = mats.shape[1] - 1
    rows = np.arange(len(mats), dtype=np.int64)
    starts, lengths = _bound_ranges(
        lm_keys, group_of_row, lm_start, lm_len, mats, rows,
        tail_greater, tail_less,
    )
    ends = starts + lengths
    if not tail_distinct:
        return np.stack([starts, ends], axis=1)
    tail_keys = (group_of_row << 32) | mats[:, tail]  # gammalint: allow[overflow] -- group ids < 2**31: the caller checked _PACK_VERTEX_LIMIT before packing lm_keys
    hole = np.searchsorted(lm_keys, tail_keys)
    inside = (starts <= hole) & (hole < ends)
    inside[inside] = lm_keys[hole[inside]] == tail_keys[inside]
    hole = np.where(inside, hole, ends)
    return np.stack([starts, hole, np.minimum(hole + 1, ends), ends], axis=1)


def _merge_by_row(
    parts: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Join ``(cand, cand_row)`` batches that are each sorted by row into
    one that is: a stable sort by row, needed only when more than one part
    contributed."""
    cand, cand_row = _joined(parts)
    if len(parts) > 1:
        order = np.argsort(cand_row, kind="stable")
        cand, cand_row = cand[order], cand_row[order]
    return cand, cand_row


@dataclass
class ExtensionStats:
    """Work accounting for one extension call."""

    rows_in: int = 0
    rows_out: int = 0
    candidates: int = 0
    groups: int = 0
    kernel_ops: float = 0.0
    list_reads: int = 0
    #: Candidate slots the host materialised (``candidates`` is what the
    #: model bills): phase 1's prefix intersection — nothing when the last
    #: level left it on its column — plus phase 2's per-row slices, which a
    #: ``count_only`` level without an anchored tail skips (its counts are
    #: arithmetic).  Summed over the level's expansions: row batches of at
    #: most ``_BATCH_SLOTS`` slots or one row, and a kept tail-free level's
    #: output.
    #: Telemetry only: never charged or journaled; like ``per_row_counts``
    #: it stays with the engine, and a replayed or sharded op reports 0.
    expanded: int = 0
    per_row_counts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


class ExtensionEngine:
    """Vertex- and edge-extension over an embedding table."""

    def __init__(
        self,
        platform: GpuPlatform,
        residence: GraphResidence,
        write_strategy: WriteStrategy | None = None,
        pre_merge: bool = True,
        planner: AccessHeatPlanner | None = None,
        cpu: bool = False,
        cpu_op_factor: float = 1.0,
    ) -> None:
        self.platform = platform
        self.residence = residence
        self.write_strategy = write_strategy
        self.pre_merge = pre_merge
        self.planner = planner
        #: CPU engines charge traversal ops to the CPU executor instead of
        #: launching kernels; ``cpu_op_factor`` scales per-op cost to model
        #: algorithmic differences between CPU systems.
        self.cpu = cpu
        self.cpu_op_factor = cpu_op_factor
        self.graph = residence.graph
        #: When set, vertex extensions process the table in contiguous row
        #: chunks of this size, shrinking per-step device allocations (the
        #: halve-chunk degradation policy lowers this under memory
        #: pressure).  Chunking never changes the produced embeddings —
        #: each row's candidates come from exactly one source list and rows
        #: are processed in order — only the charge accounting (shared
        #: prefix groups split at chunk boundaries are re-read).
        self.chunk_rows: int | None = None
        #: Slots expanded by the extension in progress
        #: (:attr:`ExtensionStats.expanded`).
        self._expanded = 0

    # -- seeding ------------------------------------------------------------
    def seed_vertices(
        self, table: EmbeddingTable, label: int | None = None
    ) -> EmbeddingTable:
        """Install the initial v-ET column: all vertices (optionally label-
        filtered) — line 2 of Algorithm 1."""
        if table.kind != VERTEX:
            raise ExecutionError("seed_vertices requires a vertex table")
        with self.platform.telemetry.span("seed:vertex", kind="level", level=0):
            n = self.graph.num_vertices
            if label is None:
                values = np.arange(n, dtype=np.int64)
            else:
                values = np.flatnonzero(
                    self.graph.labels == label  # gammalint: allow[charge] -- label scan billed by _charge_scan below
                ).astype(np.int64)
            self._charge_scan(n)
            table.seed(values)
        return table

    def seed_edges(self, table: EmbeddingTable) -> EmbeddingTable:
        """Install the initial e-ET column: all length-1 embeddings — line 1
        of Algorithm 2."""
        if table.kind != EDGE:
            raise ExecutionError("seed_edges requires an edge table")
        with self.platform.telemetry.span("seed:edge", kind="level", level=0):
            values = np.arange(self.graph.num_edges, dtype=np.int64)
            self._charge_scan(self.graph.num_edges)
            table.seed(values)
        return table

    def _charge_scan(self, n: int) -> None:
        if self.cpu:
            self.platform.cpu.work(n * self.cpu_op_factor)
        else:
            self.platform.kernel.launch("seed", element_ops=n)

    # -- shared helpers -------------------------------------------------------
    def _expand(
        self, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_expand_lists`, counted."""
        cand, cand_row = _expand_lists(values, starts, lengths, rows)
        self._expanded += len(cand)
        return cand, cand_row

    def _emit_stats(self, stats: ExtensionStats, level: int, mode: str) -> None:
        tel = self.platform.telemetry
        if tel.active:
            tel.metric("extension.rows_out", stats.rows_out, level=level, mode=mode)
            tel.metric("extension.expanded", stats.expanded, level=level, mode=mode)

    def _bounded_neighbors(
        self,
        vertices: np.ndarray,
        degrees: np.ndarray,
        mats: np.ndarray,
        rows: np.ndarray,
        greater_than_cols: Sequence[int],
        less_than_cols: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency list of ``vertices[i]`` (``degrees[i]`` long) as
        the candidates of ``mats[rows[i]]``, cut to that row's ordering
        bounds; returns ``(cand, cand_row)``.  Host-side and uncharged."""
        graph = self.graph
        starts, lengths = _bound_ranges(
            graph.adjacency_keys,  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
            vertices,
            graph.offsets[vertices],  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
            degrees, mats, rows, greater_than_cols, less_than_cols,
        )
        return self._expand(
            graph.neighbors,  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
            starts, lengths, rows,
        )

    def _incident_values(
        self, vertices: np.ndarray, endpoints: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The incident edge ids of ``vertices`` concatenated, each
        vertex's count, and (with ``endpoints``) each edge's other
        endpoint: the neighbor in the same CSR slot."""
        starts = self.graph.offsets[vertices]  # gammalint: allow[charge] -- host-side compute mirror; device traffic charged via _charge_list_reads
        ends = self.graph.offsets[vertices + 1]  # gammalint: allow[charge] -- host-side compute mirror; device traffic charged via _charge_list_reads
        slots = expand_ranges(starts, ends)
        others = (
            self.graph.neighbors[slots]  # gammalint: allow[charge] -- host-side compute mirror; device traffic charged via _charge_list_reads
            if endpoints else None
        )
        return (
            self.graph.edge_ids[slots],  # gammalint: allow[charge] -- host-side compute mirror; device traffic charged via _charge_list_reads
            ends - starts,
            others,
        )

    def _charge_list_reads(self, region_name: str, vertices: np.ndarray) -> None:
        """Charge adjacency/incidence list reads for the given vertex
        multiset through the residence's region (GPU engines only)."""
        if self.cpu or len(vertices) == 0:
            return
        region = getattr(self.residence, region_name, None)
        if region is None:
            return
        starts = self.graph.offsets[vertices]  # gammalint: allow[charge] -- derives the ranges handed to region.charge_ranges below
        ends = self.graph.offsets[vertices + 1]  # gammalint: allow[charge] -- derives the ranges handed to region.charge_ranges below
        passes = getattr(self.write_strategy, "passes", 1)
        for __ in range(passes):
            region.charge_ranges(starts, ends)

    def _prune_candidates(
        self,
        cand: np.ndarray,
        cand_row: np.ndarray,
        mats: np.ndarray,
        verify_cols: Sequence[int],
        distinct_cols: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply constraint pushdown to a candidate batch; returns the
        surviving ``(cand, cand_row)`` in original candidate order.

        A candidate survives when it neighbors its row's ``verify_cols``
        vertices and differs from its ``distinct_cols`` vertices (id
        ordering is applied before expansion, by :func:`_bound_ranges`).  Every
        constraint is a pure per-candidate predicate of ``(row, value)``, so
        the survivor set is independent of evaluation order (the charged
        label probe is the caller's, after all of these): the arrays are
        compressed after each predicate (cheap injectivity filters first,
        edge verification on the shrunken remainder) instead of AND-ing
        full-width boolean masks.
        """
        # Cheap injectivity predicates first, fused into one mask; the
        # expensive edge-verification probes then run on whatever
        # survives.  Compression (dropping dead candidates) is adaptive: a
        # gather-copy of the int64 arrays only pays for itself when the
        # pending mask actually prunes, so low-selectivity filters keep
        # AND-ing masks instead (SM's injectivity filter keeps
        # ~everything — don't compress).
        pending: np.ndarray | None = None
        for col in distinct_cols:
            m = cand != mats[cand_row, col]
            pending = m if pending is None else pending & m
        for col in verify_cols:
            cand, cand_row, pending = self._compress(cand, cand_row, pending)
            if len(cand) == 0:
                break
            m = self.graph.has_edges(mats[cand_row, col], cand)
            pending = m if pending is None else pending & m
        cand, cand_row, __ = self._compress(
            cand, cand_row, pending, force=True
        )
        return cand, cand_row

    @staticmethod
    def _compress(
        cand: np.ndarray,
        cand_row: np.ndarray,
        pending: np.ndarray | None,
        force: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Apply a pending mask when profitable (or ``force``\\ d)."""
        if pending is None:
            return cand, cand_row, None
        kept = int(np.count_nonzero(pending))
        if force or kept * 4 <= len(cand) * 3:
            # One scan of the mask, then two gathers: faster than boolean
            # indexing each array.
            live = np.flatnonzero(pending)
            return cand[live], cand_row[live], None
        return cand, cand_row, pending

    def _account_writes(
        self,
        per_row_counts: np.ndarray,
        kernel_ops: float,
        upper_bounds: np.ndarray,
    ) -> None:
        """Charge traversal compute + result layout for one extension."""
        if self.cpu:
            total = float(kernel_ops) + float(per_row_counts.sum())
            self.platform.cpu.work(total * self.cpu_op_factor)
            return
        if self.write_strategy is None:
            raise ExecutionError("GPU engines need a write strategy")
        self.write_strategy.account(
            per_row_counts, _RESULT_BYTES, kernel_ops,
            upper_bound_counts=upper_bounds,
        )

    # -- vertex extension (union mode) -------------------------------------
    def extend_vertices_any(
        self,
        table: EmbeddingTable,
        anchor_cols: Sequence[int],
        label: int | None = None,
        greater_than_col: int | None = None,
        greater_than_cols: Sequence[int] = (),
        less_than_cols: Sequence[int] = (),
        injective: bool = True,
    ) -> ExtensionStats:
        """Extend by one vertex adjacent to *at least one* anchor column —
        Definition 3.1's literal ``N_v(M)`` (the union of the embedding's
        neighborhoods), used by connected-subgraph enumeration (graphlets).

        Candidates are the union of the anchors' adjacency lists, deduped
        within each row; the same constraint arguments as
        :meth:`extend_vertices` apply.
        """
        tel = self.platform.telemetry
        depth = table.depth
        with tel.span("extend-vertices-any", kind="level", level=depth), \
                self.platform.resilience.phase(f"level:{depth}"):
            stats = self._extend_vertices_any_impl(
                table, anchor_cols, label, greater_than_col,
                greater_than_cols, less_than_cols, injective,
            )
        self._emit_stats(stats, depth, "vertex-any")
        return stats

    def _extend_vertices_any_impl(
        self,
        table: EmbeddingTable,
        anchor_cols: Sequence[int],
        label: int | None,
        greater_than_col: int | None,
        greater_than_cols: Sequence[int],
        less_than_cols: Sequence[int],
        injective: bool,
    ) -> ExtensionStats:
        anchor_cols, greater_than_cols, less_than_cols, distinct_cols = _checked_columns(
            "extend_vertices_any", table, anchor_cols, greater_than_col,
            greater_than_cols, less_than_cols, injective,
        )

        stats = ExtensionStats(rows_in=table.num_embeddings)
        mats = table.materialize()
        n = len(mats)
        if n == 0:
            table.append_column(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
            return stats

        self._expanded = 0
        # Reads: every anchor list per row (deduped when pre-merge groups
        # shared vertices, as in edge extension).
        anchor_vertices = mats[:, anchor_cols].ravel()
        if self.pre_merge:
            read_vertices = np.unique(anchor_vertices)
        else:
            read_vertices = anchor_vertices
        stats.list_reads = len(read_vertices)
        # Billed from the degree table: the full lists, not the bounded
        # slices expanded below.
        anchor_deg = self.residence.degrees_of(anchor_vertices)
        stats.candidates = int(anchor_deg.sum())
        stats.kernel_ops = float(stats.candidates)
        upper = anchor_deg.reshape(n, len(anchor_cols)).sum(axis=1)
        if self.planner is not None:
            self.planner.plan_extension(read_vertices)
        self._charge_list_reads("neighbors", read_vertices)

        # Candidates: concatenate every anchor's neighborhood per row.
        row_of_anchor = np.repeat(
            np.arange(n, dtype=np.int64), len(anchor_cols)
        )
        cand, cand_row = self._bounded_neighbors(
            anchor_vertices, anchor_deg, mats, row_of_anchor,
            greater_than_cols, less_than_cols,
        )
        cand, cand_row = self._prune_candidates(
            cand, cand_row, mats, (), distinct_cols
        )
        if label is not None:
            keep = self.residence.labels_of(cand) == label
            cand, cand_row = cand[keep], cand_row[keep]
        # Dedup within a row: a candidate adjacent to several anchors
        # appears once per anchor.  Duplicates of a (row, value) pair share
        # every constraint verdict, so deduping the *survivors* keeps
        # exactly the first occurrence the full-width dedup would keep.
        keep = _first_occurrence_mask(cand_row, cand, self.graph.num_vertices + 1)
        cand, cand_row = cand[keep], cand_row[keep]

        counts = np.bincount(cand_row, minlength=n).astype(np.int64)
        stats.per_row_counts = counts
        self._account_writes(counts, stats.kernel_ops, upper)
        order = np.argsort(cand_row, kind="stable")
        table.append_column(cand[order], cand_row[order])
        stats.rows_out = len(cand)
        stats.expanded = self._expanded
        self.platform.counters.add(st.EXTENSION_PASSES)
        self.platform.counters.add(st.EMBEDDINGS_PRODUCED, stats.rows_out)
        return stats

    # -- vertex extension ------------------------------------------------------
    def extend_vertices(
        self,
        table: EmbeddingTable,
        anchor_cols: Sequence[int],
        label: int | None = None,
        greater_than_col: int | None = None,
        greater_than_cols: Sequence[int] = (),
        less_than_cols: Sequence[int] = (),
        injective: bool = True,
        count_only: bool = False,
    ) -> ExtensionStats:
        """Extend every embedding by one vertex adjacent to all anchors.

        ``anchor_cols`` are the columns whose vertices the new vertex must
        neighbor (the matched query neighbors in WOJ, all columns in kCL).
        ``label`` filters candidates by vertex label;
        ``greater_than_cols``/``less_than_cols`` enforce id-ordering
        constraints against already-matched columns (kCL canonicality,
        symmetry-breaking restrictions); ``greater_than_col`` is the
        single-column shorthand; ``injective`` excludes vertices already in
        the embedding.  ``count_only`` appends the level as its length alone
        (:class:`~repro.core.embedding_table.CountedColumn`): the same bill
        and stats, no rows — for a query that reads only the count.

        Constraint pushdown is the paper's §III-B3: "extended embeddings
        violating the query graph's constraint can be pruned immediately".
        """
        tel = self.platform.telemetry
        depth = table.depth
        with tel.span("extend-vertices", kind="level", level=depth), \
                self.platform.resilience.phase(f"level:{depth}"):
            stats = self._extend_vertices_impl(
                table, anchor_cols, label, greater_than_col,
                greater_than_cols, less_than_cols, injective, count_only,
            )
        self._emit_stats(stats, depth, "vertex")
        return stats

    def _extend_vertices_impl(
        self,
        table: EmbeddingTable,
        anchor_cols: Sequence[int],
        label: int | None,
        greater_than_col: int | None,
        greater_than_cols: Sequence[int],
        less_than_cols: Sequence[int],
        injective: bool,
        count_only: bool = False,
    ) -> ExtensionStats:
        anchor_cols, greater_than_cols, less_than_cols, distinct_cols = _checked_columns(
            "extend_vertices", table, anchor_cols, greater_than_col,
            greater_than_cols, less_than_cols, injective,
        )
        depth = table.depth

        stats = ExtensionStats(rows_in=table.num_embeddings)
        mats = table.materialize()
        n = len(mats)
        if n == 0:
            if count_only:
                table.append_counted(0)
            else:
                table.append_column(
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
                )
            return stats

        tail_col = depth - 1 if (depth - 1) in anchor_cols else None
        prefix_cols = [c for c in anchor_cols if c != tail_col]
        grouped = bool(self.pre_merge and tail_col is not None and prefix_cols)
        parents = (
            table.column_parents(table.depth - 1)
            if grouped and depth > 1 else None
        )
        offsets = self.graph.offsets  # gammalint: allow[charge] -- degree probes for anchor choice; list reads charged per chunk below

        # One pass per contiguous row chunk (a single chunk unless the
        # halve-chunk policy set ``chunk_rows``).  Each chunk plans, reads
        # and allocates independently, which is the point of chunking:
        # per-chunk device allocations (e.g. the prealloc strategy's
        # worst-case buffer) shrink with the chunk size.  (Host batches,
        # :data:`_BATCH_SLOTS`, are finer and bill nothing.)
        chunk = self.chunk_rows or n
        # A level run in one chunk may read the lists the last level left
        # on its column, and leaves its own; a chunked one does neither.
        carried = table.columns[-1] if chunk >= n else None
        self._expanded = 0
        cand_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []
        for lo in range(0, n, chunk):
            sub = mats[lo:lo + chunk]
            # ---- charge this mode's read multiset + traversal ops ------------
            # (from the degree table, never from the arrays expanded below)
            kernel_ops, read_vertices, groups = self._vertex_read_plan(
                parents[lo:lo + chunk] if parents is not None else None,
                sub, prefix_cols, tail_col,
            )
            stats.kernel_ops += kernel_ops
            stats.groups += groups
            stats.list_reads += len(read_vertices)
            if self.planner is not None:
                self.planner.plan_extension(read_vertices)
            self._charge_list_reads("neighbors", read_vertices)
            anchor_deg = np.stack(
                [offsets[sub[:, c] + 1] - offsets[sub[:, c]]
                 for c in anchor_cols],
                axis=1,
            )
            # Upper bound per row = its shortest anchor list, the source the
            # per-row intersection kernel expands.
            upper = anchor_deg.min(axis=1)
            stats.candidates += int(upper.sum())

            # ---- compute the surviving candidates ----------------------------
            counts, found, before_label = self._surviving_candidates(
                sub, anchor_cols, anchor_deg, distinct_cols,
                greater_than_cols, less_than_cols, label, carried, count_only,
            )
            count_parts.append(counts)
            self._account_writes(counts, kernel_ops, upper)
            if not count_only:
                cand_parts.append(found[0])
                row_parts.append(found[1] + lo if lo else found[1])

        stats.per_row_counts = _concat(count_parts)
        stats.rows_out = int(stats.per_row_counts.sum())
        if count_only:
            table.append_counted(stats.rows_out)
        else:
            # Output stays grouped by parent row (BFS order): every chunk's
            # candidates come back sorted by row.
            table.append_column(
                _concat(cand_parts), _concat(row_parts),
                Survivors(
                    tuple(anchor_cols), frozenset(distinct_cols),
                    frozenset(greater_than_cols), frozenset(less_than_cols),
                    *before_label,
                ) if chunk >= n and before_label is not None else None,
            )
        stats.expanded = self._expanded
        self.platform.counters.add(st.EXTENSION_PASSES)
        self.platform.counters.add(st.EMBEDDINGS_PRODUCED, stats.rows_out)
        return stats

    def _surviving_candidates(
        self,
        mats: np.ndarray,
        anchor_cols: Sequence[int],
        anchor_deg: np.ndarray,
        distinct_cols: Sequence[int],
        greater_than_cols: Sequence[int],
        less_than_cols: Sequence[int],
        label: int | None,
        carried: Column | None,
        count_only: bool,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None,
               tuple[np.ndarray, np.ndarray] | None]:
        """Per row of ``mats``: the vertices adjacent to every anchor that
        pass the constraints and carry ``label``, the label probes billed.
        Returns ``(counts, found, lists)``: ``counts[r]`` survivors of row
        ``r``; ``found`` them as ``(cand, cand_row)`` with rows ascending
        and candidates ascending within a row, or ``None`` when
        ``count_only``; ``lists`` that pair before the label filter when it
        is at hand (else ``None``), for the next level's ``carried`` — the
        table's last column when its rows are all of ``mats``.  This is
        the seam the per-row twin replaces (``tests/twins.py``); how the
        survivors are found is :meth:`_shared_prefix_candidates`' business."""
        return self._shared_prefix_candidates(
            mats, anchor_cols, anchor_deg, distinct_cols,
            greater_than_cols, less_than_cols, label, carried, count_only,
        )

    def _min_degree_candidates(
        self,
        mats: np.ndarray,
        anchor_cols: Sequence[int],
        anchor_deg: np.ndarray,
        distinct_cols: Sequence[int],
        greater_than_cols: Sequence[int],
        less_than_cols: Sequence[int],
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Per row of ``mats``: the vertices adjacent to every anchor that
        pass the constraints, generated by expanding the row's shortest
        anchor list (``anchor_deg[r]`` holds the lengths) and verifying the
        others — the intersection order every real GPM kernel uses — one
        row batch at a time (:meth:`_verified_batches`)."""
        graph = self.graph
        source = np.argmin(anchor_deg, axis=1)
        starts = np.empty(len(mats), dtype=np.int64)
        lengths = np.empty_like(starts)
        for idx, col in enumerate(anchor_cols):
            rows = np.flatnonzero(source == idx)
            if len(rows):
                vertices = mats[rows, col]
                starts[rows], lengths[rows] = _bound_ranges(
                    graph.adjacency_keys,  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
                    vertices,
                    graph.offsets[vertices],  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
                    anchor_deg[rows, idx], mats, rows,
                    greater_than_cols, less_than_cols,
                )
        return self._verified_batches(mats, source, starts, lengths, [
            (graph.neighbors,  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
             [c for c in anchor_cols if c != col], distinct_cols)
            for col in anchor_cols
        ])

    def _verified_batches(
        self,
        mats: np.ndarray,
        source: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        sources: list[tuple[np.ndarray, Sequence[int], Sequence[int]]],
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Row ``r`` of ``mats`` expands ``values[starts[r]:starts[r] +
        lengths[r]]`` of ``(values, verify_cols, distinct_cols) =
        sources[source[r]]`` and keeps what neighbors its ``verify_cols``
        vertices and differs from its ``distinct_cols`` ones.  Yields
        ``(lo, hi, cand, cand_row)`` per row batch (:func:`_row_batches`
        over ``lengths``), rows ascending, list order within a row: the
        host holds one batch's expansion at a time."""
        for lo, hi in _row_batches(lengths):
            parts = []
            for idx, (values, verify_cols, distinct_cols) in enumerate(sources):
                rows = lo + np.flatnonzero(source[lo:hi] == idx)
                if len(rows):
                    cand, cand_row = self._expand(
                        values, starts[rows], lengths[rows], rows)
                    parts.append(self._prune_candidates(
                        cand, cand_row, mats, verify_cols, distinct_cols))
            yield (lo, hi, *_merge_by_row(parts))

    def _shared_prefix_candidates(
        self,
        mats: np.ndarray,
        anchor_cols: Sequence[int],
        anchor_deg: np.ndarray,
        distinct_cols: Sequence[int],
        greater_than_cols: Sequence[int],
        less_than_cols: Sequence[int],
        label: int | None,
        carried: Column | None,
        count_only: bool,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None,
               tuple[np.ndarray, np.ndarray] | None]:
        """The survivors of :meth:`_min_degree_candidates` that carry
        ``label`` (same rows, same order, same label bill), computed the
        way pre-merge is billed (Fig. 8(b)): the part of the intersection
        that reads only the columns before the tail is the same for every
        row of a *group* — consecutive rows agreeing on those columns, i.e.
        siblings under one parent — so it is done once per group.

        * **Phase 1, per group**: ``L_m`` = the prefix anchors' common
          neighbors that pass every constraint on columns before the tail:
          the lists the level before left on ``carried`` when it asked that
          of every parent (:meth:`Survivors.answers`), grouped by the
          column's parent pointers; else the min-degree rule over each
          group's first row.
        * **Phase 2, tail not an anchor**: the tail imposes no adjacency,
          so a row's survivors are the slice of ``L_m[group]`` inside its
          tail ordering bounds, less the tail vertex itself when it must be
          distinct and lies inside.  The pre-label count the model bills is
          therefore a slice length minus at most one, the label is probed
          once on ``L_m`` rather than once per row, and each row expands
          only its slice of the labelled ``L_m`` — nothing at all when
          ``count_only``: the counts are differences of ranks.
        * **Phase 2, tail an anchor**: expand the shorter of ``L_m[group]``
          and ``N(tail)`` and apply what is left — tail adjacency and tail
          constraints on an ``L_m`` candidate, everything on an ``N(tail)``
          candidate.  A candidate's pre-label survival depends on its row
          here, so the label filter runs last, per row
          (:meth:`_filter_label_by_source`).

        With one prefix anchor and an anchored tail ``L_m`` would be that
        anchor's adjacency list and phase 2's choice the min-degree rule
        itself, so that shape (and the prefix-less one) goes straight to
        the per-row rule.  Grouping is the host's business only: what is
        *charged* follows ``pre_merge`` in :meth:`_vertex_read_plan`.
        """
        graph = self.graph
        tail = mats.shape[1] - 1
        tail_anchored = anchor_cols[-1] == tail
        prefix_cols = anchor_cols[:-1] if tail_anchored else anchor_cols
        if not prefix_cols or (tail_anchored and len(prefix_cols) == 1):
            return self._filter_label_by_source(
                self._min_degree_candidates(
                    mats, anchor_cols, anchor_deg, distinct_cols,
                    greater_than_cols, less_than_cols,
                ),
                anchor_deg, label, count_only,
            )

        # ---- phase 1: L_m per group, CSR-shaped -------------------------------
        constraints = (distinct_cols, greater_than_cols, less_than_cols)
        before_tail = [[c for c in cols if c < tail] for cols in constraints]
        tail_distinct, tail_greater, tail_less = (
            [c for c in cols if c == tail] for cols in constraints
        )
        lists = carried.lists if carried is not None else None
        if lists is not None and lists.answers(
            prefix_cols, *before_tail, tail_greater, tail_less
        ):
            lm, lm_group, group_of_row = lists.values, lists.rows, carried.parents
        else:
            lead = np.ones(len(mats), dtype=bool)
            lead[1:] = (mats[1:, :tail] != mats[:-1, :tail]).any(axis=1)
            first_rows = np.flatnonzero(lead)
            group_of_row = np.cumsum(lead) - 1
            lm, lm_group = _joined([
                batch[2:] for batch in self._min_degree_candidates(
                    mats[first_rows], prefix_cols,
                    anchor_deg[first_rows, :len(prefix_cols)], *before_tail,
                )
            ])
        # Groups ascend with the rows either way; one whose L_m is empty has
        # no entry in ``lm_group``, one without rows here is never asked for.
        group_len = np.bincount(lm_group, minlength=int(group_of_row[-1]) + 1)
        lm_len = group_len[group_of_row]
        lm_start = (np.cumsum(group_len) - group_len)[group_of_row]
        if len(group_len) >= _PACK_VERTEX_LIMIT:
            raise ExecutionError("(group << 32) | vertex keys hold < 2**31 groups")
        lm_keys = (lm_group << 32) | lm

        if not tail_anchored:
            # ---- phase 2, tail-free: each row takes its slice of L_m ----------
            cuts = _slice_cuts(
                lm_keys, group_of_row, lm_start, lm_len, mats,
                tail_greater, tail_less, bool(tail_distinct),
            )
            if label is not None:
                # Billed before the label, as the per-row rule probes.
                self._charge_label_probes(
                    (cuts[:, 1::2] - cuts[:, 0::2]).sum(axis=1), anchor_deg
                )
                carries = graph.labels[lm] == label  # gammalint: allow[charge] -- one host probe per L_m entry; billed per row and source part by _charge_label_probes above
                # Position i of L_m has ``rank[i]`` labelled entries before it.
                rank = np.zeros(len(lm) + 1, dtype=np.int64)
                np.cumsum(carries, out=rank[1:])
                lm, cuts = lm[carries], rank[cuts]
            pieces = cuts[:, 1::2] - cuts[:, 0::2]
            counts = pieces.sum(axis=1)
            if count_only:
                return counts, None, None
            survivors = self._expand(
                lm, cuts[:, 0::2].ravel(), pieces.ravel(),
                np.arange(len(mats), dtype=np.int64).repeat(pieces.shape[1]),
            )
            # The unlabelled survivors were billed, never materialised.
            return counts, survivors, survivors if label is None else None

        # ---- phase 2, anchored tail: tail-only work per row --------------------
        from_tail = anchor_deg[:, -1] < lm_len
        starts = np.empty(len(mats), dtype=np.int64)
        lengths = np.empty_like(starts)
        rows = np.flatnonzero(~from_tail)
        starts[rows], lengths[rows] = _bound_ranges(
            lm_keys, group_of_row[rows], lm_start[rows], lm_len[rows],
            mats, rows, tail_greater, tail_less,
        )
        rows = np.flatnonzero(from_tail)
        if len(rows):
            tails = mats[rows, tail]
            starts[rows], lengths[rows] = _bound_ranges(
                graph.adjacency_keys,  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
                tails,
                graph.offsets[tails],  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
                anchor_deg[rows, -1], mats, rows,
                greater_than_cols, less_than_cols,
            )
        return self._filter_label_by_source(
            self._verified_batches(
                mats, from_tail.astype(np.int64), starts, lengths, [
                    (lm, [tail], tail_distinct),
                    (graph.neighbors,  # gammalint: allow[charge] -- host-side compute mirror; list reads charged by the caller's read plan
                     prefix_cols, distinct_cols),
                ]),
            anchor_deg, label, count_only,
        )

    def _charge_label_probes(
        self, survivors: np.ndarray, anchor_deg: np.ndarray
    ) -> None:
        """Bill ``survivors[r]`` label probes for each row as the per-row
        algorithm does: one charge per min-degree source part (the rows
        whose shortest list is anchor ``i``), in anchor order.  (Clock
        buckets accumulate with float ``+=``, so a different split of the
        same total would change the low bits of simulated time.)"""
        source_choice = np.argmin(anchor_deg, axis=1)
        for idx in range(anchor_deg.shape[1]):
            part = source_choice == idx
            if part.any():
                self.residence.charge_label_reads(int(survivors[part].sum()))

    def _filter_label_by_source(
        self,
        batches: Iterator[tuple[int, int, np.ndarray, np.ndarray]],
        anchor_deg: np.ndarray,
        label: int | None,
        count_only: bool,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None,
               tuple[np.ndarray, np.ndarray] | None]:
        """Keep the candidates of ``batches`` (:meth:`_verified_batches`)
        carrying ``label`` (all of them when it is ``None``), billing one
        probe per candidate handed in — per source part, over the whole
        level, once the last batch is in: the label filter of the shapes
        where a candidate's pre-label survival depends on its row (the
        per-row rule and the anchored tail), so that the billed count is
        only known after expansion.  Returns ``(counts, found, lists)`` as
        :meth:`_surviving_candidates` does; a counted level keeps no batch
        past its count."""
        handed = np.zeros(len(anchor_deg), dtype=np.int64)
        counts = handed if label is None else np.zeros_like(handed)
        handed_parts, kept_parts = [], []
        for lo, hi, cand, cand_row in batches:
            handed[lo:hi] = np.bincount(cand_row - lo, minlength=hi - lo)
            if not count_only:
                handed_parts.append((cand, cand_row))
            if label is not None:
                keep = np.flatnonzero(self.graph.labels[cand] == label)  # gammalint: allow[charge] -- billed per source part by _charge_label_probes below
                cand, cand_row = cand[keep], cand_row[keep]
                counts[lo:hi] = np.bincount(cand_row - lo, minlength=hi - lo)
            if not count_only:
                kept_parts.append((cand, cand_row))
        if label is not None:
            self._charge_label_probes(handed, anchor_deg)
        if count_only:
            return counts, None, None
        found = _joined(kept_parts)
        return counts, found, found if label is None else _joined(handed_parts)

    def _vertex_read_plan(
        self,
        parents: np.ndarray | None,
        mats: np.ndarray,
        prefix_cols: list[int],
        tail_col: int | None,
    ) -> tuple[float, np.ndarray, int]:
        """Traversal-op count and adjacency-read multiset for one vertex
        extension, following the mode's actual algorithm:

        * **pre-merge** (Fig. 8(b)): per *group* (= shared parent), read and
          merge the prefix anchors' lists once into ``L_m``; per row, merge
          ``N(tail)`` against ``L_m``.
        * **naive** (Fig. 8(a)): per *row*, read and merge every anchor's
          full list.

        ``parents`` is the last column's parent array (``None`` when the
        mode is ungrouped); chunked extensions pass the chunk's slice.

        Returns ``(kernel_ops, read_vertex_multiset, num_groups)``.
        """
        n = len(mats)
        anchor_cols = prefix_cols + ([tail_col] if tail_col is not None else [])
        degrees = self.residence.degrees_of
        grouped = (
            self.pre_merge and tail_col is not None and prefix_cols
            and parents is not None
        )
        if not grouped:
            vertices = mats[:, anchor_cols].ravel()
            ops = float(degrees(vertices).sum())
            return ops, vertices, n

        group_ids, first_rows = np.unique(parents, return_index=True)
        group_mats = mats[first_rows]
        prefix_vertices = group_mats[:, prefix_cols].ravel()
        prefix_deg = degrees(prefix_vertices)
        group_ops = float(prefix_deg.sum())

        tail_vertices = mats[:, tail_col]
        tail_deg = degrees(tail_vertices)
        # |L_m| is bounded by the smallest prefix list in the group.
        lm_bound = prefix_deg.reshape(len(group_mats), len(prefix_cols)).min(axis=1)
        bound_by_parent = np.zeros(
            int(parents.max()) + 1 if len(parents) else 1, dtype=np.float64
        )
        bound_by_parent[group_ids] = lm_bound
        row_ops = float(tail_deg.sum() + bound_by_parent[parents].sum())

        vertices = np.concatenate([prefix_vertices, tail_vertices])
        return group_ops + row_ops, vertices, len(group_ids)

    # -- edge extension -----------------------------------------------------------
    def extend_edges(self, table: EmbeddingTable,
                     greater_than_col: "int | None" = None) -> ExtensionStats:
        """Extend every edge-oriented embedding by one adjacent edge
        (Definition 3.1's ``Ext_e``): any edge incident to any embedding
        vertex that is not already in the embedding.

        ``greater_than_col`` restricts candidates to edge ids strictly
        greater than the edge in that column (the planner's ordered-growth
        restriction: with column 0 holding each row's minimum edge, every
        edge *pair* is generated exactly once and the downstream dedup
        pass becomes unnecessary)."""
        tel = self.platform.telemetry
        depth = table.depth
        with tel.span("extend-edges", kind="level", level=depth), \
                self.platform.resilience.phase(f"level:{depth}"):
            stats = self._extend_edges_impl(table, greater_than_col)
        self._emit_stats(stats, depth, "edge")
        return stats

    def _extend_edges_impl(self, table: EmbeddingTable,
                           greater_than_col: "int | None" = None,
                           ) -> ExtensionStats:
        if table.kind != EDGE:
            raise ExecutionError("extend_edges requires an edge table")
        stats = ExtensionStats(rows_in=table.num_embeddings)
        mats = table.materialize()
        n, depth = (mats.shape if mats.size else (0, table.depth))
        if n == 0:
            table.append_column(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
            return stats

        # Embedding vertices: endpoints of every edge column, deduped per row.
        flat_edges = mats.ravel()
        src, dst = self.residence.endpoints_of(flat_edges)
        verts = np.empty((n, 2 * depth), dtype=np.int64)
        verts[:, 0::2] = src.reshape(n, depth)
        verts[:, 1::2] = dst.reshape(n, depth)
        verts_sorted = np.sort(verts, axis=1)
        fresh = np.ones_like(verts_sorted, dtype=bool)
        fresh[:, 1:] = verts_sorted[:, 1:] != verts_sorted[:, :-1]
        row_of_vert = np.repeat(
            np.arange(n, dtype=np.int64), fresh.sum(axis=1)
        )
        distinct_verts = verts_sorted[fresh]

        # Traversal ops: one incident-list merge per (row, vertex).
        incident_deg = self.residence.degrees_of(distinct_verts)
        stats.kernel_ops = float(incident_deg.sum())
        # Reads: pre-merge dedups lists shared across rows; naive re-reads.
        if self.pre_merge:
            read_vertices = np.unique(distinct_verts)
            stats.groups = len(read_vertices)
        else:
            read_vertices = distinct_verts
            stats.groups = n
        stats.list_reads = len(read_vertices)
        if self.planner is not None:
            self.planner.plan_extension(read_vertices)
        self._charge_list_reads("edge_slots", read_vertices)

        # Candidate edges.
        cand, lengths, others = self._incident_values(
            distinct_verts, endpoints=depth > 1)
        cand_row = np.repeat(row_of_vert, lengths)
        stats.candidates = stats.expanded = len(cand)

        # Drop edges already in the embedding.
        mask = np.ones(len(cand), dtype=bool)
        for col in range(depth):
            mask &= cand != mats[cand_row, col]
        if greater_than_col is not None:
            # Ordered growth: the per-warp kernel compares each candidate
            # against one resident column, so the restriction prunes before
            # any output is written (the comparison rides the existing
            # already-present check, no extra charged pass).
            mask &= cand > mats[cand_row, greater_than_col]
        if depth > 1:
            # An edge joining two row vertices is met from both; it counts
            # where it is met first, from the lower one.  (At depth 1 the
            # only such edge is the row's own, dropped above: strictly
            # ascending CSR lists admit no parallel edge.)
            met = np.flatnonzero(
                mask & (others < np.repeat(distinct_verts, lengths)))
            other, met_row = others[met], cand_row[met]
            again = np.zeros(len(met), dtype=bool)
            for col in range(2 * depth):
                again |= verts_sorted[met_row, col] == other
            mask[met[again]] = False

        counts = np.bincount(cand_row[mask], minlength=n).astype(np.int64)
        stats.per_row_counts = counts
        per_row_bound = np.bincount(row_of_vert, weights=incident_deg, minlength=n)
        self._account_writes(counts, stats.kernel_ops, per_row_bound.astype(np.int64))
        table.append_column(cand[mask], cand_row[mask],
                            edge_grown=greater_than_col is None)
        stats.rows_out = int(mask.sum())
        self.platform.counters.add(st.EXTENSION_PASSES)
        self.platform.counters.add(st.EMBEDDINGS_PRODUCED, stats.rows_out)
        return stats
