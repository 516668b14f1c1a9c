"""GAMMA's hybrid host-memory access (paper §IV).

The data graph's CSR is duplicated in host memory — one copy mapped as
unified memory, one as zero-copy — and a per-page mode map decides which
copy serves each page.  The access-heat planner
(:mod:`repro.core.access_planner`) recomputes the mode map before every
extension: the hottest ``N_u`` pages go to unified memory (buffered on the
device), everything else goes to zero-copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import clock as clk
from . import stats as st
from .regions import (
    HostRegion,
    covered_units,
    dedup_units,
    range_lengths_in_units,
    read_sum,
)
from .unified import PageBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .platform import GpuPlatform


class HybridRegion(HostRegion):
    """A host array with per-page unified/zero-copy access selection.

    ``duplication = 2`` reflects the paper's CSR duplication in both host
    mappings ("Graph duplication is not a big issue considering the host
    memory capacity", §IV).
    """

    duplication = 2

    def __init__(
        self,
        name: str,
        array: np.ndarray,
        platform: "GpuPlatform",
        buffer_pages: int,
    ) -> None:
        super().__init__(name, array, platform)
        page = platform.spec.page_size
        self.total_pages = max(1, -(-array.nbytes // page))
        buffer_pages = min(buffer_pages, self.total_pages)
        self._buffer_alloc = platform.device.allocate(
            buffer_pages * page, f"{name}:page-buffer"
        )
        self.buffer = PageBuffer(buffer_pages, self.total_pages)
        self._total_lines = max(1, -(-array.nbytes // platform.spec.zerocopy_line))
        # Default: everything through zero-copy until the planner learns heat.
        self._unified_mask = np.zeros(self.total_pages, dtype=bool)

    @property
    def buffer_capacity_pages(self) -> int:
        """Maximum number of pages the planner may route to unified memory."""
        return self.buffer.capacity

    @property
    def unified_pages(self) -> np.ndarray:
        """Page ids currently routed through unified memory."""
        return np.flatnonzero(self._unified_mask)

    def set_unified_pages(self, pages: np.ndarray) -> None:
        """Route exactly ``pages`` through unified memory (rest zero-copy).

        Pages that leave the unified set are dropped from the device buffer:
        their buffered copies are stale capacity once the planner demotes
        them.

        The unified set may exceed the device buffer capacity (the
        unified-only baseline of Fig. 20 routes *every* page here); residency
        is still bounded by the buffer, so oversubscription shows up as LRU
        thrashing rather than an error — exactly the pathology the paper's
        hybrid strategy avoids.
        """
        pages = np.asarray(pages, dtype=np.int64)
        new_mask = np.zeros(self.total_pages, dtype=bool)
        new_mask[pages] = True
        demoted = np.flatnonzero(self._unified_mask & ~new_mask)
        self.buffer.drop(demoted)
        self._unified_mask = new_mask

    def shrink_buffer(self, new_pages: int) -> int:
        """Shrink the device page buffer to ``new_pages``; returns bytes freed.

        Used by the demote-pages degradation policy: dropping the buffer
        releases device capacity so an allocation that just failed with
        :class:`~repro.errors.DeviceOutOfMemory` can succeed on retry.
        Buffered pages are discarded (cold restart of the LRU).
        """
        new_pages = max(0, int(new_pages))
        if new_pages >= self.buffer.capacity:
            return 0
        platform = self._platform
        page = platform.spec.page_size
        freed = (self.buffer.capacity - new_pages) * page
        platform.device.free(self._buffer_alloc)
        self._buffer_alloc = platform.device.allocate(
            new_pages * page, f"{self.name}:page-buffer"
        )
        self.buffer = PageBuffer(new_pages, self.total_pages)
        return freed

    def _charge_elements(self, indices: np.ndarray) -> None:
        platform = self._platform
        if len(indices) == 0:
            return
        page_size = platform.spec.page_size
        byte_pos = np.asarray(indices, dtype=np.int64) * self._itemsize
        pages = byte_pos // page_size
        is_unified = self._unified_mask[pages]

        # Unified side: page-granular faults/hits + device-bandwidth reads.
        uni_pages = dedup_units(pages[is_unified], self.total_pages)
        if len(uni_pages):
            hits, misses = self.buffer.access(uni_pages)
            platform.counters.add(st.PAGE_HITS, hits)
            platform.pcie.migrate_pages(misses)
            nbytes = int(is_unified.sum()) * self._itemsize
            platform.clock.advance(
                clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth
            )
            platform.counters.add(st.BYTES_DEVICE, nbytes)

        # Zero-copy side: one transaction per distinct 128 B line.
        zc_bytes = byte_pos[~is_unified]
        if len(zc_bytes):
            lines = dedup_units(
                zc_bytes // platform.spec.zerocopy_line, self._total_lines
            )
            platform.pcie.zerocopy_transactions(len(lines))

    def _range_bill(self, starts, ends, reads):
        """Range reads with per-list access-mode routing, as ``(unified,
        zero-copy lines)``: ``unified`` is ``(pages, nbytes)`` or ``None``.

        Each adjacency list is served by the mode of its first page (hot
        lists occupy whole hot pages, so mixed-mode lists are rare).
        Unified lists dedup through the page buffer; zero-copy lists pay one
        transaction per 128 B line per read, with no cross-read caching.
        """
        live = ends > starts
        if not live.any():
            return None, 0
        s, e = starts[live], ends[live]
        if reads is not None:
            reads = reads[live]
        page_size = self._platform.spec.page_size
        first_page = (s * self._itemsize) // page_size
        is_unified = self._unified_mask[first_page]

        uni = None
        if is_unified.any():
            su, eu = s[is_unified], e[is_unified]
            last_page = (eu * self._itemsize - 1) // page_size
            # Enumerate the page span of each unified range, then dedup.
            pages = covered_units(first_page[is_unified], last_page,
                                  self.total_pages)
            uni = (pages, read_sum(
                eu - su, None if reads is None else reads[is_unified]
            ) * self._itemsize)

        zc_nlines = 0
        zero_copy = ~is_unified
        if zero_copy.any():
            zc_nlines = read_sum(range_lengths_in_units(
                s[zero_copy], e[zero_copy], self._itemsize,
                self._platform.spec.zerocopy_line,
            ), None if reads is None else reads[zero_copy])
        return uni, zc_nlines

    def _apply_bill(self, bill) -> None:
        platform = self._platform
        uni, zc_nlines = bill
        if uni is not None:
            pages, nbytes = uni
            hits, misses = self.buffer.access(pages)
            platform.counters.add(st.PAGE_HITS, hits)
            platform.pcie.migrate_pages(misses)
            platform.clock.advance(
                clk.DEVICE_MEM, nbytes / platform.cost.device_bandwidth
            )
            platform.counters.add(st.BYTES_DEVICE, nbytes)
        if zc_nlines:
            platform.pcie.zerocopy_transactions(zc_nlines)

    def release(self) -> None:
        self._platform.device.free(self._buffer_alloc)
        super().release()
