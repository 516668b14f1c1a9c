"""The embedding table (paper §III-A, §V-A).

Intermediate results are stored column-first: each extension appends one
column, and every cell holds a vertex (v-ET) or edge (e-ET) id plus a
pointer to its predecessor in the previous column.  Rows extended from the
same parent share that parent cell, so the columnar layout *is* the
prefix-tree compression of Fig. 6(b).

The table is host-resident (its size can exceed device memory by orders of
magnitude); reads stream through unified memory with prefetch, and
extension results are first written to a device-side buffer and flushed to
host after the extension (Fig. 6).  ``compact`` implements the three-stage
GPU compression of §V-A: mark, prefix-scan, parallel collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ExecutionError
from ..gpusim import clock as clk
from ..gpusim.platform import GpuPlatform
from ..gpusim.regions import expand_ranges
from ..gpusim.warp import charge_warp_scan

VERTEX = "vertex"
EDGE = "edge"

#: int64 ids + int64 parent pointer per cell.
_CELL_BYTES = 16


def _frozen(array) -> np.ndarray:
    """A read-only int64 view of ``array``'s data (the caller's own array
    keeps its flag)."""
    out = np.ascontiguousarray(array, dtype=np.int64).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Survivors:
    """What a vertex extension computed on the way to its column.

    Per row of the table it extended: the vertices adjacent to every
    ``anchors`` column that differ from the ``distinct`` columns and lie
    above the ``greater`` / below the ``less`` ones, *before* any label
    filter — ``values[i]`` survives for row ``rows[i]``, rows ascending,
    values ascending within a row (an unlabelled level's own column) —
    and where the level's own rows sit in them: ``values[kept]`` is the
    column's ids (``kept`` is ``None`` for the identity, an unlabelled
    level).  Host-side and unbilled; the next level reads them in place
    of intersecting the same lists again, and its tails' places from
    ``kept`` in place of searching them (docs/COSTMODEL.md, "Hot paths").
    """

    anchors: tuple
    distinct: frozenset
    greater: frozenset
    less: frozenset
    values: np.ndarray
    rows: np.ndarray
    kept: np.ndarray | None = None

    def positions(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Where the level's rows ``rows`` (all of them by default) sit in
        these lists."""
        if self.kept is None:
            return (np.arange(len(self.values), dtype=np.int64)
                    if rows is None else rows)
        return self.kept if rows is None else self.kept.take(rows)

    def answers(self, anchors, distinct, greater, less,
                tail_greater, tail_less) -> bool:
        """Whether these lists can stand for the ``L_m`` of a level with
        prefix anchors ``anchors`` and these constraints on the columns
        before its tail: the same question, or one they answer more
        strictly only by orderings the level's tail ordering implies (the
        tail was generated above every ``self.greater`` column, so under
        ``tail_greater`` any keepable ``x > tail > c`` clears them too;
        symmetrically below) — still every candidate the level can keep,
        and every slice between the tail's bounds as long as ``L_m``'s."""
        distinct, greater, less = map(frozenset, (distinct, greater, less))
        return (
            self.anchors == tuple(anchors)
            and greater <= self.greater and less <= self.less
            and (bool(tail_greater) or self.greater == greater)
            and (bool(tail_less) or self.less == less)
            # An ordering against a column is a difference from it too.
            and distinct <= self.distinct | self.greater | self.less
            and self.distinct <= distinct | greater | less
        )


class Codes:
    """The canonical codes of a level, as its aggregation left them on its
    column for the support filter (``Filtering(ET, PT, constraint)``).

    ``distinct`` holds the codes, ascending and unique; ``index`` maps each
    row to its code — or, for a pair level counted from its ranges, each
    wedge triple of ``triples`` (ascending, :meth:`Column.triples`) to its
    code, with ``counts`` rows a triple and ``first`` the level-1 ids the
    level grew from.  Host-side and unbilled.  The row form is also the
    aggregation sort's counted keys (:mod:`repro.core.sort`): a segment's
    counts are one ``bincount``."""

    __slots__ = ("distinct", "index", "triples", "counts", "first")

    def __init__(self, distinct, index, triples=None, counts=None,
                 first=None) -> None:
        self.distinct = distinct
        self.index = index
        self.triples = triples
        self.counts = counts
        self.first = first

    def __len__(self) -> int:
        """Rows of the level."""
        if self.triples is None:
            return len(self.index)
        return int(self.counts.sum())

    def code_counts(self) -> np.ndarray:
        """Rows per distinct code."""
        return np.bincount(self.index, weights=self.counts,
                           minlength=len(self.distinct)).astype(np.int64)

    def kept(self, frequent: np.ndarray, column: "Column"):
        """What :meth:`EmbeddingTable.compact` / ``mark`` keep of
        ``column``, this note's level, given whether each distinct code is
        frequent: a row mask, or the pair level narrowed to its frequent
        triples."""
        frequent = frequent[self.index]
        if self.triples is None:
            return frequent
        kept = Column.of_pair(
            self.first, column.graph, deduped=column.deduped,
            kept=None if frequent.all() else self.triples[frequent],
            length=int(self.counts[frequent].sum()))
        # None for a level on disk.
        kept._ranges, kept._ends = column._ranges, column._ends
        return kept

    def segment_counts(self, bounds) -> list[np.ndarray]:
        out = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            counts = np.bincount(self.index[start:stop],
                                 minlength=len(self.distinct))
            if len(counts) != len(self.distinct):
                raise ExecutionError("dictionary index out of range")
            out.append(counts)
        return out

    def rows(self) -> np.ndarray:
        return self.distinct[self.index]


#: A column's source: its rows as arrays, as its parents' incident lists
#: (a pair level), or only their count.
ARRAYS = "arrays"
PAIR = "pair"
COUNT = "count"


class Column:
    """One extension level: ``length`` rows from exactly one source.

    * ``ARRAYS`` — read-only ids and parent row pointers (-1 at the root).
    * ``PAIR`` — an unrestricted edge extension of a one-edge level, kept
      as the ranges it reads: row ``p`` of ``first`` holds edge ``f``, and
      its children are its endpoints' incident edges with ``f``'s own slot
      cut out (:meth:`ranges`), in the order edge extension emits them.
      Two states narrow it without a row being read: ``deduped`` (each
      edge pair's first occurrence, :meth:`deduplicated`) and ``kept``
      (only the rows whose wedge triple — :meth:`triples` — is one of
      these ascending keys: a support filter's).  Its ranges are built at
      most once (a deduplicated level's with its length), and the filter's
      narrowed level shares them; the arrays are expanded on first read,
      in row batches with ``kept`` applied, and kept.
    * ``COUNT`` — a level that was only counted (a counting query's last):
      no rows, and reading them raises :class:`ExecutionError`.

    Every source is billed, host-registered and journaled as a stored
    column of its length.  A column is resident, or on disk behind the
    spill store's ``handle`` holding what its source writes (:meth:`written`).
    A table only ever *replaces* a column (compaction, spilling, restore),
    so whoever holds a resident column's arrays — a checkpoint snapshot, a
    suspended query — holds that level as it was, without a copy.  The
    notes ``lists`` (on a resident column) and ``codes`` (resident or on
    disk, and in the snapshot record) ride on the last column until the
    next level is appended; a replacement carries none.
    """

    __slots__ = ("source", "length", "first", "graph", "deduped", "kept",
                 "handle", "lists", "codes", "_arrays", "_ranges", "_ends")

    def __init__(self, source: str, length: int, *, arrays=None, first=None,
                 graph=None, deduped: bool = False, kept=None,
                 handle: int | None = None,
                 lists: Survivors | None = None) -> None:
        self.source = source
        self.length = int(length)
        self.first = first
        self.graph = graph
        self.deduped = bool(deduped)
        self.kept = kept
        self.handle = handle
        self.lists = lists
        self.codes: Codes | None = None
        self._arrays = arrays
        self._ranges = None
        self._ends = None

    @classmethod
    def of_arrays(cls, values, parents,
                  lists: Survivors | None = None) -> "Column":
        values, parents = _frozen(values), _frozen(parents)
        if values.shape != parents.shape:
            raise ExecutionError("column values/parents must align")
        return cls(ARRAYS, len(values), arrays=(values, parents), lists=lists)

    @classmethod
    def of_pair(cls, first, graph, *, deduped: bool = False, kept=None,
                length: int | None = None) -> "Column":
        """A pair level over ``graph``; ``length`` is required with
        ``kept`` (the ranges alone do not say how many rows it keeps)."""
        column = cls(PAIR, 0, first=_frozen(first), graph=graph,
                     deduped=deduped,
                     kept=None if kept is None else _frozen(kept))
        if length is None:
            if kept is not None:
                raise ExecutionError("a filtered pair level needs its length")
            if deduped:
                __, starts, ends = column.ranges()
                length = (ends - starts).sum()
            else:  # edge f = {u, v} has deg(u) + deg(v) - 2 children
                degrees, first = graph.degree_table(), column.first
                length = (degrees[graph.edge_src[first]]
                          + degrees[graph.edge_dst[first]] - 2).sum()
        column.length = int(length)
        return column

    def __len__(self) -> int:
        return self.length

    @property
    def on_disk(self) -> bool:
        return self.handle is not None

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Per level-1 row: edge ``f``'s endpoints ``u < v``, as int32 (a
        ``CSRGraph`` holds fewer than 2**31 vertices).  Built on first call
        and kept, read-only: :meth:`ranges` and :meth:`triples` both read
        them."""
        if self._ends is None:
            self._ends = self._edge_ends()
            for part in self._ends:
                part.flags.writeable = False
        return self._ends

    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        graph, first = self.graph, self.first
        src, dst = graph.edge_src[first], graph.edge_dst[first]
        return (np.minimum(src, dst).astype(np.int32),
                np.maximum(src, dst).astype(np.int32))

    def ranges(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """A pair column's rows as ``(source, starts, ends)``: per level-1
        row holding edge ``f`` joining ``u < v``, four ranges of
        ``source`` (CSR slots; ``None`` stands for the slots themselves) —
        ``u``'s list before and after ``f``'s slot, then ``v``'s — with
        ``kept`` not applied.  Built on first call and kept, read-only.

        Deduplicated, a row keeps each pair's first occurrence: with every
        list ascending by edge id and ``first`` strictly ascending, rows
        ascend by edge id, so ``{f, e}`` first occurs under ``f`` exactly
        when ``e > f`` or no level-1 row holds ``e`` (``e`` is *dead*).
        That is the dead slots before ``f``'s slot and every slot after
        it: the source is the dead slots, then every slot."""
        if self._ranges is None:
            self._ranges = tuple(None if part is None else _frozen(part)
                                 for part in self._built_ranges())
        return self._ranges

    def _built_ranges(self):
        graph = self.graph
        u, v = self.edge_ends()
        low_slot, high_slot, __ = graph.edge_slots()
        low, high = low_slot[self.first], high_slot[self.first]
        offsets = graph.offsets
        starts = np.stack([offsets[u], low + 1, offsets[v], high + 1], axis=1)
        ends = np.stack([low, offsets[u + 1], high, offsets[v + 1]], axis=1)
        if not self.deduped:
            return None, starts, ends
        alive = np.zeros(graph.num_edges, dtype=bool)
        alive[self.first] = True
        dead_slot = ~alive[graph.edge_ids]
        dead_slots = np.flatnonzero(dead_slot)
        # dead_rank[s]: dead slots before slot s, i.e. their index in source.
        dead_rank = np.zeros(len(dead_slot) + 1, dtype=np.int64)
        np.cumsum(dead_slot, out=dead_rank[1:])
        starts[:, 0::2] = dead_rank[starts[:, 0::2]]
        ends[:, 0::2] = dead_rank[ends[:, 0::2]]
        starts[:, 1::2] += len(dead_slots)
        ends[:, 1::2] += len(dead_slots)
        source = np.concatenate([dead_slots, np.arange(len(dead_slot))])
        return source, starts, ends

    def triples(self) -> tuple[np.ndarray, int]:
        """``(prefix, span)``: the wedge triple of a row in range ``r`` of
        level-1 row ``p`` is ``prefix[p, r] * span + label(w)``, ``w`` the
        far end of its edge (the slot's neighbour) and ``prefix`` the
        centre's label times ``span`` plus the other end's — ``u`` then
        ``v`` for the first two ranges, ``v`` then ``u`` for the last two.
        ``span`` is the graph's label span."""
        labels = self.graph.labels
        span = self.graph.num_labels
        u, v = self.edge_ends()
        at_u = labels[u] * span + labels[v]
        at_v = labels[v] * span + labels[u]
        return np.stack([at_u, at_u, at_v, at_v], axis=1), span

    def deduplicated(self) -> "Column":
        """This pair level keeping each edge pair's first occurrence
        (itself when it is already deduplicated)."""
        if self.deduped:
            return self
        return Column.of_pair(self.first, self.graph, deduped=True)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            if self.source != PAIR or self.on_disk:
                raise ExecutionError(f"a {self.source} column holds no rows "
                                     "in memory")
            self._arrays = self._expanded()
        return self._arrays

    def _expanded(self) -> tuple[np.ndarray, np.ndarray]:
        """A pair column's arrays, expanded from its ranges in row batches
        of ``extension._BATCH_SLOTS`` straight into the output."""
        from .extension import _row_batches

        source, starts, ends = self.ranges()
        graph = self.graph
        slot_ids = graph.edge_ids if source is None else graph.edge_ids[source]
        if self.kept is not None:
            prefix, span = self.triples()
            far = graph.labels[graph.neighbors if source is None
                               else graph.neighbors[source]]
        lengths = ends - starts
        counts = lengths.sum(axis=1)
        values = np.empty(self.length, dtype=np.int64)
        parents = np.empty(self.length, dtype=np.int64)
        at = 0
        for lo, hi in _row_batches(counts):
            picks = expand_ranges(starts[lo:hi].ravel(), ends[lo:hi].ravel())
            rows = np.arange(lo, hi).repeat(counts[lo:hi])
            if self.kept is not None:
                triple = prefix[lo:hi].ravel().repeat(
                    lengths[lo:hi].ravel()) * span + far[picks]
                keep = np.isin(triple, self.kept)
                picks, rows = picks[keep], rows[keep]
            values[at:at + len(picks)] = slot_ids[picks]
            parents[at:at + len(picks)] = rows
            at += len(picks)
        if at != self.length:
            raise ExecutionError(f"a pair level of {self.length} rows "
                                 f"expanded to {at}")
        return _frozen(values), _frozen(parents)

    @property
    def values(self) -> np.ndarray:
        return self._rows()[0]

    @property
    def parents(self) -> np.ndarray:
        return self._rows()[1]

    def written(self) -> np.ndarray | None:
        """What spilling writes of a resident column: the packed arrays,
        a pair level's ``first``, nothing for a count."""
        if self.source == ARRAYS:
            return np.stack(self._arrays)
        return self.first

    def stored_at(self, handle: int) -> "Column":
        """This level on disk behind ``handle`` (a pair level keeps its
        state beside the handle)."""
        return Column(self.source, self.length, graph=self.graph,
                      deduped=self.deduped, kept=self.kept, handle=handle)

    def read_back(self, data: np.ndarray | None) -> "Column":
        """This level resident again, from what :meth:`written` gave."""
        if self.source == ARRAYS:
            return Column.of_arrays(data[0], data[1])
        if self.source == PAIR:
            return Column.of_pair(data, self.graph, deduped=self.deduped,
                                  kept=self.kept, length=self.length)
        return Column(COUNT, self.length)


class EmbeddingTable:
    """Columnar, host-resident table of partial embeddings."""

    def __init__(
        self,
        platform: GpuPlatform,
        kind: str = VERTEX,
        name: str = "ET",
        device_resident: bool = False,
        write_buffer_bytes: int = 1 << 20,
        charged: bool = True,
    ) -> None:
        if kind not in (VERTEX, EDGE):
            raise ExecutionError(f"embedding table kind must be vertex|edge, got {kind}")
        self.platform = platform
        self.kind = kind
        self.name = name
        self.columns: List[Column] = []
        #: In-core baselines (Pangolin) keep the ET in device memory; they
        #: OOM where GAMMA keeps going.
        self.device_resident = device_resident
        #: CPU engines pass ``charged=False``: the table lives in plain host
        #: memory and its traversal cost is billed per-op by the engine.
        self.charged = charged
        self._device_allocs: list = []
        self._registered_bytes = 0
        #: Set by :meth:`release`; a snapshot records it, so a restored
        #: table a driver had already let go of holds nothing either.
        self.released = False
        if not device_resident and charged and write_buffer_bytes:
            # GAMMA keeps a device write buffer for extension results and
            # flushes it to host after each extension (§V-A).
            self._write_buffer = platform.device.allocate(
                write_buffer_bytes, f"{name}:write-buffer"
            )
        else:
            self._write_buffer = None
        self._spill_store = None
        self._spill_policy = None

    # -- spilling (extension beyond host memory; repro.core.spill) ----------
    def attach_spill(self, store, policy) -> None:
        """Enable disk spilling: once the table's host footprint crosses the
        policy's budget, old columns move to ``store`` and are faulted back
        transparently on access."""
        self._spill_store = store
        self._spill_policy = policy

    @property
    def spilled_columns(self) -> int:
        return sum(c.on_disk for c in self.columns)

    def _resident(self, level: int) -> Column:
        """One level with its source in memory: the column itself, or a copy
        faulted back from disk (billed as its ``len x 16`` bytes)."""
        column = self.columns[level]
        if column.source == COUNT:
            raise ExecutionError(
                f"level {level} of {self.name} was only counted: no rows stored")
        if column.on_disk:
            return column.read_back(self._spill_store.fetch(column.handle))
        return column

    def _column_arrays(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, parents) of one level, faulting from disk if spilled."""
        column = self._resident(level)
        return column.values, column.parents

    def _spilled(self, column: Column) -> Column:
        """``column`` written to the spill store (its source, billed as the
        ``len x 16`` bytes of its stored arrays whatever it writes)."""
        handle = self._spill_store.spill(column.written(),
                                         len(column) * _CELL_BYTES)
        return column.stored_at(handle)

    def _maybe_spill(self) -> None:
        if self._spill_store is None or self._spill_policy is None:
            return
        column_bytes = [len(c) * _CELL_BYTES for c in self.columns]
        resident = [not c.on_disk for c in self.columns]
        for index in self._spill_policy.columns_to_spill(column_bytes, resident):
            self.columns[index] = self._spilled(self.columns[index])
            freed = column_bytes[index]
            if self._registered_bytes >= freed:
                self.platform.unregister_host_bytes(freed, self.name)
                self._registered_bytes -= freed

    def column_length(self, level: int) -> int:
        """Rows at one level (no read, whatever the column's source)."""
        return len(self.columns[level])

    def column_values(self, level: int) -> np.ndarray:
        """One level's ids (host-side view; faults from disk if spilled)."""
        return self._column_arrays(level)[0]

    def column_parents(self, level: int) -> np.ndarray:
        """One level's parent pointers (faults from disk if spilled)."""
        return self._column_arrays(level)[1]

    def _peeked(self, column: Column) -> Column:
        """``column`` with its source in memory, read back from disk
        unbilled (host bookkeeping: snapshots, orchestration)."""
        if column.on_disk:
            return column.read_back(self._spill_store.peek(column.handle))
        return column

    def peek_rows(self) -> np.ndarray:
        """Every row as an ``(n, depth)`` matrix, unbilled: each level read
        once, a spilled one through the spill store's uncharged peek."""
        levels = [self._peeked(column) for column in self.columns]
        return self.rows_of([(c.values, c.parents) for c in levels],
                            slice(None))

    # -- shape -------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Embedding length (number of columns)."""
        return len(self.columns)

    @property
    def num_embeddings(self) -> int:
        """Rows in the last column = number of current embeddings."""
        return len(self.columns[-1]) if self.columns else 0

    @property
    def total_cells(self) -> int:
        return sum(len(col) for col in self.columns)

    @property
    def nbytes(self) -> int:
        return self.total_cells * _CELL_BYTES

    # -- growth --------------------------------------------------------------
    def seed(self, values: np.ndarray) -> None:
        """Install the initial (root) column."""
        if self.columns:
            raise ExecutionError("table already seeded")
        values = np.ascontiguousarray(values, dtype=np.int64)
        parents = np.full(len(values), -1, dtype=np.int64)
        self._store_column(Column.of_arrays(values, parents))

    def append_column(self, values: np.ndarray, parents: np.ndarray,
                      lists: Survivors | None = None) -> None:
        """Append one extension level.

        ``parents[i]`` indexes the previous column.  Charges the device
        write-buffer traffic and the flush of results back to host memory.
        ``lists`` are the level's, for the next; the previous column's go.
        """
        self._check_appendable()
        parents = np.ascontiguousarray(parents, dtype=np.int64)
        if len(parents) and (
            parents.min() < 0 or parents.max() >= len(self.columns[-1])
        ):
            raise ExecutionError("parent pointers out of range")
        self._store_column(Column.of_arrays(values, parents, lists))

    def append_pair(self, first: np.ndarray, graph) -> None:
        """Append the unrestricted edge extension of this one-edge table,
        whose ids ``first`` the caller read, as a ``PAIR`` column over
        ``graph``, billed as :meth:`append_column` bills its rows."""
        self._check_appendable()
        if self.depth != 1 or len(first) != len(self.columns[0]):
            raise ExecutionError("a pair column extends a one-edge table")
        self._store_column(Column.of_pair(first, graph))

    def append_counted(self, length: int) -> None:
        """Append one extension level of ``length`` rows as only its count
        (a ``COUNT`` column), billed as :meth:`append_column` bills that
        many rows; nothing can be appended after it."""
        self._check_appendable()
        self._store_column(Column(COUNT, length))

    def _check_appendable(self) -> None:
        if not self.columns:
            raise ExecutionError("seed the table before appending")
        if self.columns[-1].source == COUNT:
            raise ExecutionError("a counted level cannot be extended")

    def _drop_notes(self) -> None:
        if self.columns:
            self.columns[-1].lists = None
            self.columns[-1].codes = None

    def _store_column(self, column: Column) -> None:
        """Install a new last level: the previous one's notes go, and the
        new one is billed, registered or spilled as stored rows."""
        self._drop_notes()
        nbytes = len(column) * _CELL_BYTES
        platform = self.platform
        if not self.charged:
            platform.register_host_bytes(nbytes, self.name, charge=False)
            self._registered_bytes += nbytes
        elif self.device_resident:
            # In-core: the new column must fit device memory, or we crash.
            alloc = platform.device.allocate(nbytes, f"{self.name}:col{self.depth}")
            self._device_allocs.append(alloc)
            platform.clock.advance(
                clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth
            )
        else:
            # Out-of-core: write to device buffer, then flush to host.
            platform.clock.advance(
                clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth
            )
            platform.pcie.writeback(nbytes)
            if platform.telemetry.active:
                platform.telemetry.metric(
                    "et.flush_bytes", nbytes, table=self.name
                )
            if self._oversized_for_host(nbytes):
                # With spilling enabled, a column too large for the host
                # budget streams straight to disk instead of OOMing.
                self.columns.append(self._spilled(column))
                return
            platform.register_host_bytes(nbytes, self.name, charge=False)
            self._registered_bytes += nbytes
        self.columns.append(column)
        self._maybe_spill()

    def _oversized_for_host(self, nbytes: int) -> bool:
        if self._spill_store is None or self._spill_policy is None:
            return False
        available = (
            self.platform.spec.host_memory_bytes - self.platform.host_used
        )
        return nbytes > min(available, self._spill_policy.host_budget_bytes)

    # -- checkpoint support --------------------------------------------------
    def snapshot_columns(self) -> list[dict]:
        """Every column's record for a checkpoint (uncharged bookkeeping):
        its source and whether it was on disk.

        A resident column's arrays are handed out by reference (see
        :class:`Column`), so a snapshot costs O(columns), not O(cells); a
        spilled column's source is read back from the store.  A count, or a
        spilled column of a released table (its file went with the
        release), records its length alone.  A column's ``codes`` note is
        recorded beside its source, so a resume between an aggregation and
        its filter finds it.
        """
        return [self._record(column) for column in self.columns]

    def _record(self, column: Column) -> dict:
        codes, spilled = column.codes, column.on_disk
        if spilled and not self.released:
            column = self._peeked(column)
        if column.on_disk or column.source == COUNT:
            record = {"counted": len(column), "spilled": spilled}
        elif column.source == PAIR:
            record = {"first": column.first, "spilled": spilled}
            if column.deduped:
                record["deduped"] = True
            if column.kept is not None:
                record.update(kept=column.kept, rows=len(column))
        else:
            record = {"values": column.values, "parents": column.parents,
                      "spilled": spilled}
        if codes is not None:
            record["codes"] = {name: getattr(codes, name)
                               for name in Codes.__slots__}
        return record

    @staticmethod
    def _from_record(record: dict, graph) -> Column:
        if "counted" in record:
            return Column(COUNT, record["counted"])
        if "first" in record:
            return Column.of_pair(
                record["first"], graph, deduped=record.get("deduped", False),
                kept=record.get("kept"), length=record.get("rows"))
        return Column.of_arrays(record["values"], record["parents"])

    def restore_columns(self, records: list[dict], graph=None) -> None:
        """Replace the table's contents from :meth:`snapshot_columns` output.

        Current columns (and their host/device accounting) are dropped, then
        each record is re-installed: spilled columns go back to the attached
        store (uncharged — the restored clock already carries the original
        spill cost), resident columns re-register their host bytes, a pair
        column is rebuilt over ``graph``, and a ``codes`` note comes back
        on its column.  Callers overwrite the
        platform's clock/counters afterwards, so nothing here bills
        simulated time.
        """
        platform = self.platform
        if self._registered_bytes:
            platform.unregister_host_bytes(self._registered_bytes, self.name)
            self._registered_bytes = 0
        self._discard_spilled()
        for alloc in self._device_allocs:
            if alloc.live:
                platform.device.free(alloc)
        self._device_allocs = []
        self.columns = []
        for record in records:
            column = self._from_record(record, graph)
            nbytes = len(column) * _CELL_BYTES
            if record.get("spilled") and self._spill_store is not None:
                column = column.stored_at(
                    self._spill_store.restore(column.written(), nbytes))
            elif self.device_resident and self.charged:
                self._device_allocs.append(platform.device.allocate(
                    nbytes, f"{self.name}:col{self.depth}"))
            else:
                platform.register_host_bytes(nbytes, self.name, charge=False)
                self._registered_bytes += nbytes
            if "codes" in record:
                column.codes = Codes(**record["codes"])
            self.columns.append(column)

    def _discard_spilled(self) -> None:
        if self._spill_store is not None:
            for column in self.columns:
                if column.on_disk:
                    self._spill_store.discard(column.handle)

    # -- reads -----------------------------------------------------------------
    def _charge_stream(self, nbytes: int, level: int | None = None) -> None:
        """Charge reading ``nbytes`` of column data.

        Out-of-core tables serve the *most recent* column from the device
        write buffer while it still fits (it was flushed to host but its
        buffered copy remains valid until the next extension overwrites it);
        everything else streams from host over unified memory.
        """
        platform = self.platform
        if not self.charged:
            return
        if self.device_resident:
            platform.clock.advance(
                clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth
            )
            return
        buffered = 0
        if (
            self._write_buffer is not None
            and level is not None
            and level == self.depth - 1
        ):
            buffered = min(nbytes, self._write_buffer.nbytes)
        if buffered:
            platform.clock.advance(
                clk.DEVICE_MEM, buffered / platform.cost.device_bandwidth
            )
        if nbytes > buffered:
            platform.pcie.bulk_unified(nbytes - buffered)

    def materialize(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Full embeddings as an ``(n, depth)`` matrix by walking parents.

        Column ``j`` of the result is the id at level ``j``.  Charges one
        scattered read per visited cell.
        """
        if not self.columns:
            return np.empty((0, 0), dtype=np.int64)
        if rows is None:
            # Every row in order: a slice, not a gather via arange.
            return self.rows_of(self.walk_levels(self.num_embeddings), slice(None))
        rows = np.asarray(rows, dtype=np.int64)
        return self.rows_of(self.walk_levels(len(rows)), rows)

    @staticmethod
    def rows_of(levels: list, rows: np.ndarray | slice) -> np.ndarray:
        """The embeddings ending at ``rows`` of the last level (indices or
        a slice) as a matrix, from :meth:`walk_levels`' arrays; unbilled,
        so a caller walking a level in row batches bills it once.

        The matrix is column-major, as the table is: each level's ids are
        contiguous, so ``mats[:, c].take(idx)`` reads one column and no
        more.  It compares, indexes and ravels as the row-major one does."""
        values, parents = levels[-1]
        last = values[rows]
        out = np.empty((len(levels), len(last)), dtype=np.int64).T
        out[:, -1] = last
        current = parents[rows]
        for level in range(len(levels) - 2, -1, -1):
            values, parents = levels[level]
            out[:, level] = values[current]
            current = parents[current]
        return out

    def walk_levels(self, rows: int, read_last: bool = True) -> list:
        """Every level's ``(values, parents)``, indexed by level, billed as
        :meth:`materialize` bills ``rows`` rows: one scattered cell read
        per row per level, last level first, each spilled level faulted
        back just before its read.  ``read_last=False`` bills the last
        level alike but reads none of its rows: its entry is the resident
        :class:`Column`, for a caller that can answer from its source."""
        levels: list = [None] * self.depth
        for level in range(self.depth - 1, -1, -1):
            if read_last or level < self.depth - 1:
                levels[level] = self._column_arrays(level)
            else:
                levels[level] = self._resident(level)
            self._charge_stream(rows * _CELL_BYTES, level=level)
        return levels

    # -- compression (paper §V-A, three stages) -----------------------------------
    def compact(self, keep_mask: np.ndarray | None = None,
                kept_rows: Column | None = None) -> int:
        """Remove invalid rows from the last column; returns rows removed.

        Implements the paper's three stages: (1) mark valid/invalid, (2)
        prefix-scan the marks to compute compacted positions, (3) collect
        valid cells in parallel.  The host collects one array at a time:
        the column's notes go first, and the old ids are released (unless
        a snapshot holds them) before the new parent pointers are built.
        A caller that knows the kept rows hands the kept level as
        ``kept_rows`` (a :class:`Column`: a pair level narrowed by its
        ranges, say) instead of a mask: billed the same (a spilled column
        is faulted back all the same), and the old column's rows are not
        read.
        """
        return self._filter_last(keep_mask, kept_rows, compact=True)

    def mark(self, keep_mask: np.ndarray | None = None,
             kept_rows: Column | None = None) -> int:
        """Mark-only filtering, for frameworks that skip compression: the
        last column keeps the rows ``keep_mask`` (or ``kept_rows``, as in
        :meth:`compact`) marks, nothing is billed, and the dropped rows'
        bytes stay accounted.  A spilled column is faulted back and placed
        by the host budget as :meth:`compact` places it.  Returns rows
        removed."""
        return self._filter_last(keep_mask, kept_rows, compact=False)

    def _filter_last(self, keep_mask, kept_rows, compact: bool) -> int:
        if not self.columns:
            raise ExecutionError("nothing to compact")
        last = self.columns[-1]
        if last.source == COUNT:
            raise ExecutionError("a counted level has no rows to compact")
        n = len(last)
        if kept_rows is None:
            keep_mask = np.asarray(keep_mask, dtype=bool)
            if len(keep_mask) != n:
                raise ExecutionError("mask must cover the last column")
            kept = int(np.count_nonzero(keep_mask))
        else:
            kept = len(kept_rows)
        handle = last.handle
        resident = self._resident(self.depth - 1)
        self._drop_notes()
        platform = self.platform
        if compact and self.charged:
            # Stage 1: marking (one pass over the marks).
            platform.kernel.launch(f"{self.name}:mark", element_ops=n)
            # Stage 2: prefix scan of marks -> new positions (the host's
            # boolean index below places the rows; the scan is billed).
            charge_warp_scan(n, platform.clock, platform.spec, platform.cost)
            # Stage 3: parallel collection of valid cells.
            moved_bytes = kept * _CELL_BYTES
            platform.kernel.launch(
                f"{self.name}:collect", element_ops=n, device_bytes=moved_bytes
            )
        elif compact:
            platform.cpu.work(n)
        self.columns.pop()
        del last
        if kept_rows is None:
            values, parents = resident.values, resident.parents
            del resident
            values = values[keep_mask]
            column = Column.of_arrays(values, parents[keep_mask])
            del values, parents
        else:
            del resident
            column = kept_rows
        del kept_rows
        # Compression reclaims the dropped cells' memory — the space saving
        # the paper notes other frameworks forgo (§V-A).
        freed = (n - kept) * _CELL_BYTES if compact else 0
        if handle is not None:
            # Filter the disk-resident column in place: drop the old copy
            # and either bring the (now smaller) column back to host memory
            # or re-spill it if it still exceeds the budget.
            self._spill_store.discard(handle)
            nbytes = kept * _CELL_BYTES
            if self._oversized_for_host(nbytes):
                column = self._spilled(column)
            else:
                platform.register_host_bytes(nbytes, self.name, charge=False)
                self._registered_bytes += nbytes
        elif freed and self.device_resident and self.charged:
            platform.device.free(self._device_allocs.pop())
            self._device_allocs.append(platform.device.allocate(
                kept * _CELL_BYTES, f"{self.name}:col{self.depth}"))
        elif freed and self._registered_bytes >= freed:
            platform.unregister_host_bytes(freed, self.name)
            self._registered_bytes -= freed
        self.columns.append(column)
        return n - kept

    # -- lifecycle ----------------------------------------------------------------
    def release(self) -> None:
        """Free device allocations and host registrations."""
        platform = self.platform
        self.released = True
        self._drop_notes()
        if self._write_buffer is not None and self._write_buffer.live:
            platform.device.free(self._write_buffer)
        for alloc in self._device_allocs:
            if alloc.live:
                platform.device.free(alloc)
        if self._registered_bytes:
            platform.unregister_host_bytes(self._registered_bytes, self.name)
            self._registered_bytes = 0
        self._discard_spilled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "x".join(str(len(c)) for c in self.columns)
        return f"EmbeddingTable({self.name!r}, {self.kind}, cols={sizes or '[]'})"
