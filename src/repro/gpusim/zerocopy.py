"""Zero-copy host-memory access.

Zero-copy memory maps pinned host memory into the device address space with
no device-side buffer: every access moves a 128 B transaction across PCIe
(paper §II-B).  It wins for isolated, infrequently touched data because it
never migrates a whole 4 KB page for a few bytes — and loses when the same
data is re-read, since nothing is cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .regions import (
    GatherTally, HostRegion, range_lengths_in_units, read_sum,
    units_for_indices,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .platform import GpuPlatform


class ZeroCopyRegion(HostRegion):
    """A host array accessed through zero-copy (pinned) mappings."""

    def __init__(self, name: str, array: np.ndarray, platform: "GpuPlatform") -> None:
        super().__init__(name, array, platform)
        line = platform.spec.zerocopy_line
        self._total_lines = max(1, -(-array.nbytes // line))

    def gather_batches(self) -> GatherTally:
        """Scattered reads batch by batch, billed once (:class:`GatherTally`)."""
        return _LineTally(self)

    def _charge_elements(self, indices: np.ndarray) -> None:
        if len(indices) == 0:
            return
        lines = units_for_indices(
            indices,
            self._itemsize,
            self._platform.spec.zerocopy_line,
            total_units=self._total_lines,
        )
        self._platform.pcie.zerocopy_transactions(len(lines))

    def _range_bill(self, starts, ends, reads) -> int:
        # Coalesced within each range; re-fetched across ranges (no cache).
        return read_sum(range_lengths_in_units(
            starts, ends, self._itemsize, self._platform.spec.zerocopy_line
        ), reads)

    def _apply_bill(self, nlines: int) -> None:
        self._platform.pcie.zerocopy_transactions(nlines)


class _LineTally(GatherTally):
    """A zero-copy read bills the set of lines it touched: one flag a line."""

    def __init__(self, region: ZeroCopyRegion) -> None:
        super().__init__(region)
        self._platform = region._platform
        self._touched = np.zeros(region._total_lines, dtype=bool)
        per_line, extra = divmod(self._platform.spec.zerocopy_line,
                                 region.itemsize)
        #: ``log2`` of the elements a line holds when that is a power of
        #: two (a line id is then a shift), else ``None``.
        self._shift = (per_line.bit_length() - 1
                       if not extra and per_line & (per_line - 1) == 0
                       else None)

    def marks(self, indices: np.ndarray) -> np.ndarray:
        """The batch's line ids."""
        if self._shift is not None:
            return indices >> self._shift
        return (indices * self._region.itemsize) // self._platform.spec.zerocopy_line

    def note(self, indices: np.ndarray, count: int) -> None:
        self._note(self.marks(indices))

    def _note(self, marks: np.ndarray) -> None:
        self._touched[marks] = True

    def charge(self) -> None:
        self._platform.pcie.zerocopy_transactions(
            int(np.count_nonzero(self._touched)))
