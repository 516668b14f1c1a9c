"""Host-memory regions and index/page arithmetic.

A *region* wraps a NumPy array that lives in (simulated) host memory and is
mapped into the device address space.  Engines never index host arrays
directly; they go through a region's ``gather``/``read_range``/
``gather_ranges`` methods, which return the real values *and* charge the cost
model for the implied traffic.  Subclasses implement the three access modes
from the paper's §II-B: unified memory (page migration + device buffer),
zero-copy (128 B transactions, no buffer) and GAMMA's hybrid per-page mix.

The module also provides the vectorized index arithmetic shared by all
region types (expanding CSR ranges, mapping element indices to pages/lines).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from . import clock as clk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .platform import GpuPlatform


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Expand half-open integer ranges ``[starts[i], ends[i])`` into one flat
    index array, preserving order.  The workhorse of vectorized CSR
    adjacency-list expansion.

    >>> expand_ranges(np.array([0, 5]), np.array([2, 8]))
    array([0, 1, 5, 6, 7])
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have the same shape")
    lengths = ends - starts
    if (lengths < 0).any():
        raise ValueError("ranges must have non-negative length")
    lengths = lengths.ravel()
    # Output position p of range i holds starts[i] + (p - first[i]).
    first = np.cumsum(lengths) - lengths
    out = np.repeat(starts.ravel() - first, lengths)
    out += np.arange(len(out), dtype=np.int64)
    return out


def range_lengths_in_units(
    starts: np.ndarray, ends: np.ndarray, itemsize: int, unit: int
) -> np.ndarray:
    """Number of ``unit``-byte blocks each half-open element range touches."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - starts
    first = (starts * itemsize) // unit
    last = (ends * itemsize - 1) // unit
    counts = last - first + 1
    counts[lengths <= 0] = 0
    return counts


def units_for_indices(
    indices: np.ndarray, itemsize: int, unit: int, total_units: int | None = None
) -> np.ndarray:
    """Unique ``unit``-byte block ids touched by scattered element reads.

    ``total_units`` (the region's block-id namespace size, when the caller
    knows it) enables the sort-free bincount derivation; without it the
    result falls back to ``np.unique``.  Both paths return the same sorted
    array.
    """
    if len(indices) == 0:
        return np.empty(0, dtype=np.int64)
    blocks = (np.asarray(indices, dtype=np.int64) * itemsize) // unit
    return dedup_units(blocks, total_units)


def dedup_units(blocks: np.ndarray, total_units: int | None = None) -> np.ndarray:
    """Sorted unique block ids, avoiding the ``np.unique`` sort when the
    namespace is dense enough for a bincount occupancy pass."""
    if total_units is None or len(blocks) * 8 < total_units:
        return np.unique(blocks)
    occupancy = np.bincount(blocks, minlength=total_units)
    return np.flatnonzero(occupancy)


def covered_units(
    first: np.ndarray, last: np.ndarray, total_units: int | None = None
) -> np.ndarray:
    """Sorted unique block ids covered by the inclusive ranges
    ``[first[i], last[i]]`` — the page sets of batched contiguous reads.

    A dense enough batch derives the set in one coalesced difference-array
    pass (O(ranges + namespace), no sort); a sparse one, or an unknown
    namespace, expands every range and sorts via ``np.unique``.  Identical
    results either way.
    """
    if len(first) == 0:
        return np.empty(0, dtype=np.int64)
    span = int((last - first + 1).sum())
    if total_units is None or span * 8 < total_units:
        return np.unique(expand_ranges(first, last + 1))
    delta = np.bincount(first, minlength=total_units + 1)
    delta[:total_units] -= np.bincount(last + 1, minlength=total_units + 1)[:total_units]
    return np.flatnonzero(np.cumsum(delta[:total_units]) > 0)


class HostRegion:
    """Base class: a named NumPy array registered in simulated host memory.

    Construction charges the host-preparation cost (pinning/registration at
    ``host_register_bandwidth``), the overhead the paper identifies as the
    reason GAMMA trails in-core systems on tiny graphs (§VI-C).
    """

    #: How many copies of the payload this mapping keeps in host memory
    #: (GAMMA's hybrid mapping duplicates the CSR; see §IV).
    duplication = 1
    #: Whether construction bills the pinning/registration cost.  Implicit
    #: access modes pin; explicit staging (device-resident) pays its cost
    #: through the bulk copy instead.
    register_charge = True

    def __init__(self, name: str, array: np.ndarray, platform: "GpuPlatform") -> None:
        if array.ndim != 1:
            raise ValueError("regions wrap 1-D arrays; flatten first")
        self.name = name
        self._array = array
        self._platform = platform
        self._itemsize = array.dtype.itemsize
        platform.register_host_bytes(
            array.nbytes * self.duplication, name, charge=self.register_charge
        )

    # -- raw host-side views (no device traffic) ---------------------------
    @property
    def array(self) -> np.ndarray:
        """The underlying host array (host-side access, not charged)."""
        return self._array

    @property
    def nbytes(self) -> int:
        return self._array.nbytes * self.duplication

    @property
    def itemsize(self) -> int:
        return self._itemsize

    def __len__(self) -> int:
        return len(self._array)

    # -- charged device-side access ----------------------------------------
    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Scattered element reads issued from the device."""
        indices = np.asarray(indices, dtype=np.int64)
        self._charge_elements(indices)
        return self._array[indices]

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """One contiguous device-side read of ``[start, stop)``."""
        values, __ = self.gather_ranges(
            np.array([start], dtype=np.int64), np.array([stop], dtype=np.int64)
        )
        return values

    def gather_ranges(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched contiguous reads (one per range, e.g. adjacency lists).

        Returns ``(values, lengths)`` where ``values`` is the concatenation
        of all ranges in order.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        values = self._array[expand_ranges(starts, ends)]
        self.charge_ranges(starts, ends)
        return values, ends - starts

    def charge_ranges(
        self, starts: np.ndarray, ends: np.ndarray,
        reads: np.ndarray | None = None, passes: int = 1,
    ) -> None:
        """Charge ``passes`` rounds of reading each range ``[starts[i],
        ends[i])`` ``reads[i]`` times (once when ``reads`` is ``None``),
        without materializing the values.

        An extension hands each distinct list once with its read count
        (its level's occupancy); a two-pass write strategy (Pangolin's
        counting extension) reads every list twice.  Every region bills a
        batch by sums over its reads (bytes, zero-copy lines) and by the
        union of the pages they touch, so the bill is that of the multiset
        with each range repeated ``reads[i]`` times, in any order: it is
        derived once and applied per pass (the page buffer moves between
        passes).
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        bill = self._range_bill(starts, ends, reads)
        res = self._platform.resilience
        for __ in range(passes):
            if res.active:
                res.io(f"region:{self.name}")
            self._apply_bill(bill)

    def release(self) -> None:
        """Unmap the region, returning its host bytes to the budget."""
        self._platform.unregister_host_bytes(self.nbytes, self.name)

    # -- subclass hooks ------------------------------------------------------
    def _charge_elements(self, indices: np.ndarray) -> None:
        """Charge the cost model for reading these element indices."""
        raise NotImplementedError

    def _range_bill(
        self, starts: np.ndarray, ends: np.ndarray, reads: np.ndarray | None
    ):
        """What reading the ranges (``reads[i]`` times each) bills: pure
        arithmetic over the request and the region's geometry, never over
        buffer state.  Zero-copy coalesces *within* one list read but
        re-fetches lines shared *across* list reads (there is no
        device-side cache to dedup them), while unified dedups at
        page-buffer granularity regardless."""
        raise NotImplementedError

    def _apply_bill(self, bill) -> None:
        """Charge one pass of a :meth:`_range_bill`."""
        raise NotImplementedError


def read_sum(per_range: np.ndarray, reads: np.ndarray | None) -> int:
    """``per_range`` summed over every read: entry ``i`` ``reads[i]``
    times (once when ``reads`` is ``None``); exact integers."""
    if reads is None:
        return int(per_range.sum())
    return int(np.dot(per_range, reads))


class GatherTally:
    """Scattered reads of one region, batch by batch, billed once.

    :meth:`gather` returns a batch's values unbilled, and :meth:`charge`,
    after the last batch, bills what one :meth:`HostRegion.gather` of
    every batch's indices would.  A region that serves such reads
    (``gather_batches``) keeps only what its bill needs across batches:
    a set of lines, a count."""

    def __init__(self, region: HostRegion) -> None:
        self._region = region

    def gather(self, indices: np.ndarray, marks=None) -> np.ndarray:
        """A batch's values, unbilled; ``marks`` are the batch's
        :meth:`marks` when the caller already computed them (a tally over
        an array of the same length and dtype may share them)."""
        indices = np.asarray(indices, dtype=np.int64)
        self._note(self.marks(indices) if marks is None else marks)
        return self._region.array[indices]

    def marks(self, indices: np.ndarray):
        """What the bill keeps of a batch of indices."""
        raise NotImplementedError

    def note(self, indices: np.ndarray, count: int) -> None:
        """Tally, ungathered, a read of ``count`` indices whose distinct
        values ``indices`` holds (repeats allowed): the bill needs only
        the set, or only the count."""
        raise NotImplementedError

    def _note(self, marks) -> None:
        raise NotImplementedError

    def charge(self) -> None:
        raise NotImplementedError


class _CountTally(GatherTally):
    """A device-resident read bills its byte count: one running total."""

    def __init__(self, region: DeviceResidentRegion) -> None:
        super().__init__(region)
        self._device = region
        self._count = 0

    def marks(self, indices: np.ndarray) -> int:
        return len(indices)

    def note(self, indices: np.ndarray, count: int) -> None:
        self._count += count

    def _note(self, marks: int) -> None:
        self._count += marks

    def charge(self) -> None:
        self._device._charge_bytes(self._count * self._device.itemsize)


class DeviceResidentRegion(HostRegion):
    """An array staged wholly in device memory (used by in-core baselines).

    Construction performs one explicit PCIe bulk copy and a device
    allocation that counts against capacity — large graphs make this raise
    :class:`~repro.errors.DeviceOutOfMemory`, reproducing the baselines'
    crashes.
    """

    register_charge = False

    def __init__(self, name: str, array: np.ndarray, platform: "GpuPlatform") -> None:
        super().__init__(name, array, platform)
        self._allocation = platform.device.allocate(array.nbytes, name)
        platform.pcie.explicit_copy(array.nbytes, to_device=True)

    def gather_batches(self) -> GatherTally:
        """Scattered reads batch by batch, billed once (:class:`GatherTally`)."""
        return _CountTally(self)

    def _charge_bytes(self, nbytes: int) -> None:
        self._platform.clock.advance(
            clk.DEVICE_MEM, nbytes / self._platform.cost.device_bandwidth
        )

    def _charge_elements(self, indices: np.ndarray) -> None:
        self._charge_bytes(len(indices) * self._itemsize)

    def _range_bill(self, starts, ends, reads) -> int:
        return read_sum(ends - starts, reads) * self._itemsize

    def _apply_bill(self, nbytes: int) -> None:
        self._charge_bytes(nbytes)

    def release(self) -> None:
        self._platform.device.free(self._allocation)
        super().release()
