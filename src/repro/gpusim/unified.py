"""Unified-memory access: page faults, migration, and a device page buffer.

Unified memory treats host and device memory as one address space.  A device
access to a page resident on the host triggers a page fault and migrates a
4 KB page into a device-side buffer; later accesses to the same page hit the
buffer at device bandwidth (paper §II-B).  The buffer competes for device
memory with everything else, which is why GAMMA cannot also keep the graph
on the device (§IV).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import clock as clk
from . import stats as st
from .regions import HostRegion, covered_units, read_sum, units_for_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .platform import GpuPlatform

#: Ticks beyond which the packed ``last_use * total_pages + id`` eviction
#: key could overflow int64; past it eviction falls back to ``lexsort``.
_PACKED_KEY_LIMIT = 1 << 62


class PageBuffer:
    """Device-side buffer of migrated pages with amortized LRU eviction.

    Tracks residency for a fixed page-id namespace ``[0, total_pages)``.
    Eviction frees down to capacity using least-recent access ticks; ties
    are broken by page id, keeping the simulation deterministic.  Victims
    are selected with an O(resident) ``argpartition`` over a packed
    ``(last_use, page id)`` key, and with a full ``lexsort`` once the key
    could overflow — the victim *set* is identical because the key order
    is the same.
    """

    def __init__(self, capacity_pages: int, total_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be >= 0")
        self.capacity = int(capacity_pages)
        self.total_pages = int(total_pages)
        self._resident = np.zeros(self.total_pages, dtype=bool)
        self._last_use = np.zeros(self.total_pages, dtype=np.int64)
        self._tick = 0
        self._n_resident = 0
        self.evictions = 0

    @property
    def resident_count(self) -> int:
        return self._n_resident

    @property
    def resident_pages(self) -> np.ndarray:
        """Ids of the pages currently buffered on the device."""
        return np.flatnonzero(self._resident)

    def is_resident(self, page: int) -> bool:
        return bool(self._resident[page])

    def access(self, unique_pages: np.ndarray) -> tuple[int, int]:
        """Record an access batch; returns ``(hits, misses)``.

        The contract is a batch of *unique* page ids; a duplicated id must
        not fault twice (it would silently over-count ``resident_count``
        and inflate migration traffic), so non-unique input is deduped
        before any bookkeeping.  Missing pages are migrated in (made
        resident); if that overflows capacity, least-recently-used pages
        are evicted.  A batch larger than capacity keeps an
        arbitrary-but-deterministic subset resident.
        """
        unique_pages = np.asarray(unique_pages, dtype=np.int64)
        if len(unique_pages) > 1 and (np.diff(unique_pages) <= 0).any():
            unique_pages = np.unique(unique_pages)
        if self.capacity == 0:
            # No buffer: every access faults and the page is dropped again.
            return 0, len(unique_pages)
        self._tick += 1
        if len(unique_pages) == 0:
            return 0, 0
        resident = self._resident[unique_pages]
        hits = int(resident.sum())
        misses = len(unique_pages) - hits
        self._resident[unique_pages] = True
        self._last_use[unique_pages] = self._tick
        self._n_resident += misses
        if self._n_resident > self.capacity:
            self._evict(self._n_resident - self.capacity)
        return hits, misses

    def drop(self, pages: np.ndarray) -> None:
        """Explicitly invalidate pages (e.g. when the planner reassigns a
        page to zero-copy access)."""
        pages = np.asarray(pages, dtype=np.int64)
        if len(pages) == 0:
            return
        was_resident = self._resident[pages]
        self._resident[pages] = False
        self._n_resident -= int(was_resident.sum())

    def _evict(self, n_over: int) -> None:
        resident_ids = np.flatnonzero(self._resident)
        if n_over >= len(resident_ids):
            victims = resident_ids
        elif self._tick >= _PACKED_KEY_LIMIT // max(1, self.total_pages):
            # Sort by (last_use, page id) for determinism; evict the oldest.
            order = np.lexsort((resident_ids, self._last_use[resident_ids]))
            victims = resident_ids[order[:n_over]]
        else:
            # The packed key orders exactly like (last_use, page id), and
            # page ids are unique, so the n_over smallest keys select the
            # same victim *set* as the full lexsort — and only the set
            # matters: victims are cleared from a flag array, not ordered.
            keys = self._last_use[resident_ids] * np.int64(self.total_pages)
            keys += resident_ids
            victims = resident_ids[np.argpartition(keys, n_over - 1)[:n_over]]
        self._resident[victims] = False
        self._n_resident -= len(victims)
        self.evictions += len(victims)


class UnifiedRegion(HostRegion):
    """A host array accessed through unified memory.

    ``buffer_pages`` bounds the device-side page buffer; the corresponding
    device memory is allocated up front (and freed on :meth:`release`).
    """

    def __init__(
        self,
        name: str,
        array: np.ndarray,
        platform: "GpuPlatform",
        buffer_pages: int,
    ) -> None:
        super().__init__(name, array, platform)
        page = platform.spec.page_size
        total_pages = max(1, -(-array.nbytes // page))
        buffer_pages = min(buffer_pages, total_pages)
        self._buffer_alloc = platform.device.allocate(
            buffer_pages * page, f"{name}:page-buffer"
        )
        self.buffer = PageBuffer(buffer_pages, total_pages)

    def _charge_elements(self, indices: np.ndarray) -> None:
        platform = self._platform
        if len(indices) == 0:
            return
        pages = units_for_indices(
            indices,
            self._itemsize,
            platform.spec.page_size,
            total_units=self.buffer.total_pages,
        )
        hits, misses = self.buffer.access(pages)
        platform.counters.add(st.PAGE_HITS, hits)
        platform.pcie.migrate_pages(misses)
        # All requested bytes are ultimately served from the device buffer.
        nbytes = len(indices) * self._itemsize
        platform.clock.advance(clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth)
        platform.counters.add(st.BYTES_DEVICE, nbytes)

    def _range_bill(self, starts, ends, reads):
        """``(pages, nbytes)``: the union of the pages the ranges touch and
        the bytes read; ``(None, 0)`` when every range is empty."""
        live = ends > starts
        if not live.any():
            return None, 0
        s, e = starts[live], ends[live]
        page = self._platform.spec.page_size
        first = (s * self._itemsize) // page
        last = (e * self._itemsize - 1) // page
        pages = covered_units(first, last, self.buffer.total_pages)
        return pages, read_sum(
            e - s, None if reads is None else reads[live]) * self._itemsize

    def _apply_bill(self, bill) -> None:
        pages, nbytes = bill
        if pages is None:
            # No live ranges: nothing is charged and the buffer never sees
            # the batch (its access tick must not advance).
            return
        platform = self._platform
        hits, misses = self.buffer.access(pages)
        platform.counters.add(st.PAGE_HITS, hits)
        platform.pcie.migrate_pages(misses)
        platform.clock.advance(clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth)
        platform.counters.add(st.BYTES_DEVICE, nbytes)

    def release(self) -> None:
        self._platform.device.free(self._buffer_alloc)
        super().release()
