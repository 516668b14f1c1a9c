"""Disk spilling for embedding tables.

The paper's GAMMA is bounded by *host* memory (its Fig. 10 peak reaches
310 GB of the testbed's 380 GB); the related work (§VII-A) points at
disk-involved platforms (Kaleido, RStream) as the next tier.  This module
adds that tier as an opt-in extension: when a table's host footprint
crosses a budget, cold columns are spilled to disk-backed storage
(``numpy.memmap``) and transparently faulted back on access.

Cost model: spilled writes/reads are charged at SSD-class streaming
bandwidth on top of the usual host traffic, under the ``disk_io`` clock
category — so benchmarks can show exactly what the extra tier costs
(see ``benchmarks/bench_spill.py``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict

import numpy as np

from ..gpusim.platform import GpuPlatform

#: Clock category for disk traffic.
DISK_IO = "disk_io"

#: SSD-class streaming bandwidth for spilled columns.
DEFAULT_DISK_BANDWIDTH = 2e9


class SpillStore:
    """Disk-backed storage for spilled arrays.

    Arrays are written to ``.npy``-style memmaps in a private temporary
    directory; the store charges simulated disk time for every spill and
    fault and tracks the on-disk footprint.
    """

    def __init__(
        self,
        platform: GpuPlatform,
        directory: str | os.PathLike | None = None,
        bandwidth: float = DEFAULT_DISK_BANDWIDTH,
    ) -> None:
        self.platform = platform
        self.bandwidth = bandwidth
        self._own_dir = directory is None
        self._dir = (
            tempfile.mkdtemp(prefix="gamma-spill-")
            if directory is None
            else str(directory)
        )
        os.makedirs(self._dir, exist_ok=True)
        self._files: Dict[int, tuple[str, tuple, np.dtype]] = {}
        self._next_id = 0
        self.bytes_spilled = 0
        self.bytes_faulted = 0

    @property
    def directory(self) -> str:
        return self._dir

    @property
    def bytes_on_disk(self) -> int:
        total = 0
        for path, shape, dtype in self._files.values():
            total += int(np.prod(shape)) * dtype.itemsize
        return total

    def spill(self, array: np.ndarray) -> int:
        """Write ``array`` to disk; returns a handle for :meth:`fetch`."""
        res = self.platform.resilience
        if res.active:
            res.io("spill:write")
        handle = self._next_id
        self._next_id += 1
        path = os.path.join(self._dir, f"col-{handle}.bin")
        try:
            mm = np.memmap(path, dtype=array.dtype, mode="w+",
                           shape=array.shape)
            mm[:] = array
            mm.flush()
            del mm
        except BaseException:
            # A half-written file would outlive the store: it is not in
            # ``_files``, so close() would never discard it and the temp
            # directory would leak on abort.  Scrub it before re-raising.
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        self._files[handle] = (path, array.shape, array.dtype)
        self.bytes_spilled += array.nbytes
        self.platform.clock.advance(DISK_IO, array.nbytes / self.bandwidth)
        return handle

    def bill_write(self, nbytes: int) -> None:
        """What :meth:`spill` bills for ``nbytes``, with nothing written:
        a counted column (:class:`~repro.core.embedding_table.CountedColumn`)
        too large for the host budget "streams" to disk this way."""
        res = self.platform.resilience
        if res.active:
            res.io("spill:write")
        self.bytes_spilled += nbytes
        self.platform.clock.advance(DISK_IO, nbytes / self.bandwidth)

    def fetch(self, handle: int) -> np.ndarray:
        """Fault a spilled array back into memory (charged)."""
        res = self.platform.resilience
        if res.active:
            res.io("spill:read")
        path, shape, dtype = self._files[handle]
        mm = np.memmap(path, dtype=dtype, mode="r", shape=shape)
        out = np.array(mm)
        del mm
        self.bytes_faulted += out.nbytes
        self.platform.clock.advance(DISK_IO, out.nbytes / self.bandwidth)
        return out

    def peek(self, handle: int) -> np.ndarray:
        """Uncharged read of a spilled array (checkpoint bookkeeping only —
        simulated cost accrues through :meth:`fetch`)."""
        path, shape, dtype = self._files[handle]
        mm = np.memmap(path, dtype=dtype, mode="r", shape=shape)
        out = np.array(mm)
        del mm
        return out

    def restore(self, array: np.ndarray) -> int:
        """Uncharged write used by checkpoint resume: re-materialize a
        spilled array on disk without billing simulated disk time (the
        restored clock already contains the original spill's charge)."""
        handle = self._next_id
        self._next_id += 1
        path = os.path.join(self._dir, f"col-{handle}.bin")
        mm = np.memmap(path, dtype=array.dtype, mode="w+", shape=array.shape)
        mm[:] = array
        mm.flush()
        del mm
        self._files[handle] = (path, array.shape, array.dtype)
        return handle

    def discard(self, handle: int) -> None:
        """Drop a spilled array (idempotent)."""
        entry = self._files.pop(handle, None)
        if entry is not None and os.path.exists(entry[0]):
            os.unlink(entry[0])

    def close(self) -> None:
        """Delete every spill file (and the directory if we created it).

        A run that aborts mid-level can leave files the store no longer
        tracks (e.g. a column written just before the fault unwound the
        append); for directories the store owns, the whole tree is removed
        so aborted runs cannot leak temp directories.
        """
        for handle in list(self._files):
            self.discard(handle)
        if self._own_dir and os.path.isdir(self._dir):
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpillPolicy:
    """Decides which columns of a table to spill.

    Strategy: keep the most recent ``keep_columns`` levels resident (they
    are the ones extensions touch); spill everything older once the
    table's host footprint crosses ``host_budget_bytes``.  Parent-pointer
    walks (``materialize``) fault old columns back one level at a time.
    """

    def __init__(
        self,
        host_budget_bytes: int,
        keep_columns: int = 2,
    ) -> None:
        if host_budget_bytes <= 0:
            raise ValueError("host budget must be positive")
        if keep_columns < 1:
            raise ValueError("at least one column must stay resident")
        self.host_budget_bytes = host_budget_bytes
        self.keep_columns = keep_columns

    def columns_to_spill(
        self, column_bytes: list[int], resident: list[bool]
    ) -> list[int]:
        """Indices of columns to push to disk, oldest first."""
        total = sum(b for b, r in zip(column_bytes, resident) if r)
        if total <= self.host_budget_bytes:
            return []
        spill: list[int] = []
        cutoff = len(column_bytes) - self.keep_columns
        for index in range(max(0, cutoff)):
            if not resident[index]:
                continue
            spill.append(index)
            total -= column_bytes[index]
            if total <= self.host_budget_bytes:
                break
        return spill
