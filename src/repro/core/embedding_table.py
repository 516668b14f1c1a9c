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
from ..gpusim.warp import charge_warp_scan
from ..graph.groupby import Grouped

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
    values ascending within a row (an unlabelled level's own column).
    Host-side and unbilled; the next level reads them in place of
    intersecting the same lists again (docs/COSTMODEL.md, "Hot paths").
    """

    anchors: tuple
    distinct: frozenset
    greater: frozenset
    less: frozenset
    values: np.ndarray
    rows: np.ndarray

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


@dataclass(frozen=True)
class RowCodes:
    """What an aggregation of the table computed on the way to its per-row
    canonical codes: the (read-only) array it returned, ``values``, and the
    same codes dictionary-encoded, ``groups``.  Host-side and unbilled; the
    support filter handed that very array gathers per-pattern supports
    through ``groups.index`` instead of searching the pattern table once
    per row (docs/COSTMODEL.md, "Hot paths")."""

    values: np.ndarray
    groups: Grouped


@dataclass
class Column:
    """One extension level: ids plus parent row pointers (-1 at the root).

    Both arrays are read-only.  A table only ever *replaces* a column
    (``compact``, spilling, ``restore_columns``), so whoever holds a column's
    arrays — a checkpoint snapshot, a suspended query — holds that level as
    it was, without a copy.  A replacement carries no ``lists`` or
    ``codes``, and the table drops them once the next level is appended.

    ``edge_grown`` says the column is an unrestricted edge extension of the
    one before it: every edge incident to a parent row and not in it, once
    per row, children grouped by parent row in ascending order.  It holds
    as long as the column does, so spilling and checkpoints keep it; a
    compacted or caller-built column does not claim it.
    """

    values: np.ndarray
    parents: np.ndarray
    lists: Survivors | None = None
    codes: RowCodes | None = None
    edge_grown: bool = False

    def __post_init__(self) -> None:
        self.values = _frozen(self.values)
        self.parents = _frozen(self.parents)
        if self.values.shape != self.parents.shape:
            raise ExecutionError("column values/parents must align")

    def __len__(self) -> int:
        return len(self.values)


class SpilledColumn:
    """A column evicted to disk (see :mod:`repro.core.spill`)."""

    __slots__ = ("handle", "length", "edge_grown")
    #: Nothing a level recorded follows its column to disk.
    lists = None
    codes = None

    def __init__(self, handle: int, length: int,
                 edge_grown: bool = False) -> None:
        self.handle = handle
        self.length = length
        self.edge_grown = edge_grown

    def __len__(self) -> int:
        return self.length


class CountedColumn:
    """A level that was only counted: ``length`` rows, none of them kept.

    A counting query's last level (``count_only`` extension) stores no
    rows, yet is billed, host-registered and journaled as a stored column
    of its length would be — ``spilled`` when that column would have
    streamed straight to disk — so nothing simulated tells the two apart.
    Reading its rows raises :class:`~repro.errors.ExecutionError`.
    """

    __slots__ = ("length", "spilled")
    lists = None
    codes = None
    edge_grown = False

    def __init__(self, length: int, spilled: bool = False) -> None:
        self.length = length
        self.spilled = spilled

    def __len__(self) -> int:
        return self.length


def _on_disk(column) -> bool:
    return isinstance(column, SpilledColumn) or (
        isinstance(column, CountedColumn) and column.spilled)


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
        return sum(_on_disk(c) for c in self.columns)

    def _column_arrays(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, parents) of one level, faulting from disk if spilled."""
        column = self.columns[level]
        if isinstance(column, CountedColumn):
            raise ExecutionError(
                f"level {level} of {self.name} was only counted: no rows stored")
        if isinstance(column, SpilledColumn):
            packed = self._spill_store.fetch(column.handle)
            return packed[0], packed[1]
        return column.values, column.parents

    def _maybe_spill(self) -> None:
        if self._spill_store is None or self._spill_policy is None:
            return
        column_bytes = [len(c) * _CELL_BYTES for c in self.columns]
        resident = [not _on_disk(c) for c in self.columns]
        for index in self._spill_policy.columns_to_spill(column_bytes, resident):
            column = self.columns[index]
            packed = np.stack([column.values, column.parents])
            handle = self._spill_store.spill(packed)
            self.columns[index] = SpilledColumn(
                handle, len(column), column.edge_grown)
            freed = len(column) * _CELL_BYTES
            if self._registered_bytes >= freed:
                self.platform.unregister_host_bytes(freed, self.name)
                self._registered_bytes -= freed

    def column_values(self, level: int) -> np.ndarray:
        """One level's ids (host-side view; faults from disk if spilled)."""
        return self._column_arrays(level)[0]

    def column_parents(self, level: int) -> np.ndarray:
        """One level's parent pointers (faults from disk if spilled)."""
        return self._column_arrays(level)[1]

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
        self._store_column(Column(values, parents))

    def append_column(self, values: np.ndarray, parents: np.ndarray,
                      lists: Survivors | None = None,
                      edge_grown: bool = False) -> None:
        """Append one extension level.

        ``parents[i]`` indexes the previous column.  Charges the device
        write-buffer traffic and the flush of results back to host memory.
        ``lists`` are the level's, for the next; the previous column's go.
        ``edge_grown`` is :attr:`Column.edge_grown`.
        """
        self._check_appendable()
        parents = np.ascontiguousarray(parents, dtype=np.int64)
        if len(parents) and (
            parents.min() < 0 or parents.max() >= len(self.columns[-1])
        ):
            raise ExecutionError("parent pointers out of range")
        self._drop_notes()
        self._store_column(Column(values, parents, lists, edge_grown=edge_grown))

    def append_counted(self, length: int) -> None:
        """Append one extension level of ``length`` rows as only its count
        (:class:`CountedColumn`), billed as :meth:`append_column` bills
        that many rows; nothing can be appended after it."""
        self._check_appendable()
        self._drop_notes()
        self._store_column(CountedColumn(int(length)))

    def _check_appendable(self) -> None:
        if not self.columns:
            raise ExecutionError("seed the table before appending")
        if isinstance(self.columns[-1], CountedColumn):
            raise ExecutionError("a counted level cannot be extended")

    def note_codes(self, values: np.ndarray, groups: Grouped) -> None:
        """Leave an aggregation's per-row codes (frozen here) and their
        grouping on the last column; a spilled column keeps nothing."""
        values.setflags(write=False)
        if isinstance(self.columns[-1], Column):
            self.columns[-1].codes = RowCodes(values, groups)

    def _drop_notes(self) -> None:
        if self.columns and isinstance(self.columns[-1], Column):
            self.columns[-1].lists = None
            self.columns[-1].codes = None

    def _store_column(self, column: Column) -> None:
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
                if isinstance(column, CountedColumn):
                    self._spill_store.bill_write(nbytes)
                    column.spilled = True
                    self.columns.append(column)
                    return
                packed = np.stack([column.values, column.parents])
                handle = self._spill_store.spill(packed)
                self.columns.append(
                    SpilledColumn(handle, len(column), column.edge_grown))
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
        """Every column for a checkpoint (uncharged bookkeeping).

        Resident columns are handed out by reference (see :class:`Column`),
        so a snapshot costs O(columns), not O(cells); a spilled column is
        read back from the store; a counted one is its length alone.
        """
        records = []
        for column in self.columns:
            if isinstance(column, CountedColumn):
                records.append({"counted": len(column),
                                "spilled": column.spilled})
                continue
            if isinstance(column, SpilledColumn):
                values, parents = self._spill_store.peek(column.handle)
                spilled = True
            else:
                values, parents = column.values, column.parents
                spilled = False
            records.append(
                {"values": values, "parents": parents, "spilled": spilled,
                 "edge_grown": column.edge_grown})
        return records

    def restore_columns(self, records: list[dict]) -> None:
        """Replace the table's contents from :meth:`snapshot_columns` output.

        Current columns (and their host/device accounting) are dropped, then
        each record is re-installed: spilled columns go back to the attached
        store (uncharged — the restored clock already carries the original
        spill cost), resident columns re-register their host bytes.  Callers
        overwrite the platform's clock/counters afterwards, so nothing here
        bills simulated time.
        """
        platform = self.platform
        if self._registered_bytes:
            platform.unregister_host_bytes(self._registered_bytes, self.name)
            self._registered_bytes = 0
        if self._spill_store is not None:
            for column in self.columns:
                if isinstance(column, SpilledColumn):
                    self._spill_store.discard(column.handle)
        for alloc in self._device_allocs:
            if alloc.live:
                platform.device.free(alloc)
        self._device_allocs = []
        self.columns = []
        for record in records:
            if "counted" in record:
                column = CountedColumn(int(record["counted"]))
            else:
                column = Column(record["values"], record["parents"],
                                edge_grown=bool(record.get("edge_grown")))
            nbytes = len(column) * _CELL_BYTES
            if record.get("spilled") and self._spill_store is not None:
                if isinstance(column, CountedColumn):
                    column.spilled = True  # nothing was written to restore
                else:
                    packed = np.stack([column.values, column.parents])
                    column = SpilledColumn(
                        self._spill_store.restore(packed), len(column),
                        column.edge_grown)
                self.columns.append(column)
            elif self.device_resident and self.charged:
                alloc = platform.device.allocate(
                    nbytes, f"{self.name}:col{self.depth}"
                )
                self._device_allocs.append(alloc)
                self.columns.append(column)
            else:
                platform.register_host_bytes(nbytes, self.name, charge=False)
                self._registered_bytes += nbytes
                self.columns.append(column)

    # -- reads -----------------------------------------------------------------
    def read_column_values(self, index: int) -> np.ndarray:
        """Stream one column's values to the device (sequential access)."""
        values, __ = self._column_arrays(index)
        self._charge_stream(len(values) * 8, level=index)
        return values

    def read_cells(self, index: int, rows: np.ndarray) -> np.ndarray:
        """Scattered reads of (value, parent) cells in one column."""
        values, __ = self._column_arrays(index)
        rows = np.asarray(rows, dtype=np.int64)
        self._charge_stream(len(rows) * _CELL_BYTES, level=index)
        return values[rows]

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
        n = self.num_embeddings if rows is None else len(rows)
        out = np.empty((n, self.depth), dtype=np.int64)
        # ``None`` = every row in order: a copy, not a gather via arange.
        current = rows if rows is None else np.asarray(rows, dtype=np.int64)
        levels = self.walk_levels(n)
        for level in range(self.depth - 1, -1, -1):
            values, parents = levels[level]
            out[:, level] = values if current is None else values[current]
            current = parents if current is None else parents[current]
        return out

    def walk_levels(self, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every level's ``(values, parents)``, indexed by level, billed as
        :meth:`materialize` bills ``rows`` rows: one scattered cell read
        per row per level, last level first, each spilled level faulted
        back just before its read."""
        levels: list = [None] * self.depth
        for level in range(self.depth - 1, -1, -1):
            levels[level] = self._column_arrays(level)
            self._charge_stream(rows * _CELL_BYTES, level=level)
        return levels

    # -- compression (paper §V-A, three stages) -----------------------------------
    def compact(self, keep_mask: np.ndarray) -> int:
        """Remove invalid rows from the last column; returns rows removed.

        Implements the paper's three stages: (1) mark valid/invalid, (2)
        prefix-scan the marks to compute compacted positions, (3) collect
        valid cells in parallel.
        """
        if not self.columns:
            raise ExecutionError("nothing to compact")
        keep_mask = np.asarray(keep_mask, dtype=bool)
        last = self.columns[-1]
        if isinstance(last, CountedColumn):
            raise ExecutionError("a counted level has no rows to compact")
        was_spilled = isinstance(last, SpilledColumn)
        if was_spilled:
            values, parents = self._column_arrays(self.depth - 1)
            last = Column(values, parents)
        if len(keep_mask) != len(last):
            raise ExecutionError("mask must cover the last column")
        n = len(last)
        platform = self.platform
        kept = int(np.count_nonzero(keep_mask))
        if self.charged:
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
        else:
            platform.cpu.work(n)
        new_values = last.values[keep_mask]
        new_parents = last.parents[keep_mask]
        compacted = Column(new_values, new_parents)
        if was_spilled:
            # Compact the disk-resident column in place: drop the old copy
            # and either bring the (now smaller) column back to host memory
            # or re-spill it if it still exceeds the budget.
            self._spill_store.discard(self.columns[-1].handle)
            nbytes = kept * _CELL_BYTES
            if self._oversized_for_host(nbytes):
                packed = np.stack([compacted.values, compacted.parents])
                handle = self._spill_store.spill(packed)
                self.columns[-1] = SpilledColumn(handle, kept)
            else:
                platform.register_host_bytes(nbytes, self.name, charge=False)
                self._registered_bytes += nbytes
                self.columns[-1] = compacted
            return n - kept
        self.columns[-1] = compacted
        # Compression reclaims the dropped cells' memory — the space saving
        # the paper notes other frameworks forgo (§V-A).
        freed = (n - kept) * _CELL_BYTES
        if freed:
            if self.device_resident and self.charged:
                old = self._device_allocs.pop()
                platform.device.free(old)
                self._device_allocs.append(
                    platform.device.allocate(
                        kept * _CELL_BYTES, f"{self.name}:col{self.depth - 1}"
                    )
                )
            elif self._registered_bytes >= freed:
                platform.unregister_host_bytes(freed, self.name)
                self._registered_bytes -= freed
        return n - kept

    # -- lifecycle ----------------------------------------------------------------
    def release(self) -> None:
        """Free device allocations and host registrations."""
        platform = self.platform
        self._drop_notes()
        if self._write_buffer is not None and self._write_buffer.live:
            platform.device.free(self._write_buffer)
        for alloc in self._device_allocs:
            if alloc.live:
                platform.device.free(alloc)
        if self._registered_bytes:
            platform.unregister_host_bytes(self._registered_bytes, self.name)
            self._registered_bytes = 0
        if self._spill_store is not None:
            for column in self.columns:
                if isinstance(column, SpilledColumn):
                    self._spill_store.discard(column.handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "x".join(str(len(c)) for c in self.columns)
        return f"EmbeddingTable({self.name!r}, {self.kind}, cols={sizes or '[]'})"
