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

from typing import TYPE_CHECKING, Any, Tuple

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
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Keep only non-empty ranges; the cumsum trick needs positive lengths.
    nonempty = lengths > 0
    s = starts[nonempty]
    lens = lengths[nonempty]
    out = np.ones(total, dtype=np.int64)
    out[0] = s[0]
    if len(s) > 1:
        boundaries = np.cumsum(lens)[:-1]
        out[boundaries] = s[1:] - (s[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


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


class ChargeBatch:
    """Memoized charge derivation for repeated identical access batches.

    Two-pass write strategies (Pangolin's counting extension, Fig. 17/18)
    charge the *same* range batch twice back to back; the page/line
    derivation — the expensive half of charging — depends only on the
    request and the region geometry, not on buffer state, so the second
    pass can reuse the first's result.  The memo is keyed by the identity
    of the ``(starts, ends)`` array pair plus a ``token`` the region bumps
    whenever derivation inputs change (the hybrid page-mode map); callers
    must not mutate arrays between repeated charges, which no engine does.
    """

    __slots__ = ("_starts", "_ends", "_token", "_derived")

    def __init__(self) -> None:
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        self._token = -1
        self._derived: Any = None

    def lookup(self, starts: np.ndarray, ends: np.ndarray, token: int = 0) -> Any:
        """The memoized derivation for this exact batch, or ``None``."""
        if self._starts is starts and self._ends is ends and self._token == token:
            return self._derived
        return None

    def store(
        self, starts: np.ndarray, ends: np.ndarray, derived: Any, token: int = 0
    ) -> Any:
        """Memoize ``derived`` for this batch; returns it for chaining."""
        self._starts = starts
        self._ends = ends
        self._token = token
        self._derived = derived
        return derived


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
        self._charge_memo = ChargeBatch()
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
        res = self._platform.resilience
        if res.active:
            res.io(f"region:{self.name}")
        flat = expand_ranges(starts, ends)
        self._charge_ranges(starts, ends, flat)
        lengths = ends - starts
        return self._array[flat], lengths

    def charge_ranges(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Charge batched range reads without materializing the values.

        Used when an access pattern must be *accounted* but its data is not
        needed again in Python — e.g. the counting pass of Pangolin's
        two-pass extension re-reads every adjacency list.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        res = self._platform.resilience
        if res.active:
            res.io(f"region:{self.name}")
        self._charge_ranges(starts, ends, None)

    def release(self) -> None:
        """Unmap the region, returning its host bytes to the budget."""
        self._platform.unregister_host_bytes(self.nbytes, self.name)

    # -- subclass hooks ------------------------------------------------------
    def _charge_elements(self, indices: np.ndarray) -> None:
        """Charge the cost model for reading these element indices."""
        raise NotImplementedError

    def _charge_ranges(
        self, starts: np.ndarray, ends: np.ndarray, flat: np.ndarray | None
    ) -> None:
        """Charge batched range reads.

        The default treats the expansion as scattered elements.  Subclasses
        override this where range structure matters: zero-copy coalesces
        *within* one list read but re-fetches lines shared *across* list
        reads (there is no device-side cache to dedup them), while unified
        dedups at page-buffer granularity regardless.
        """
        if flat is None:
            flat = expand_ranges(starts, ends)
        self._charge_elements(flat)


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

    def _charge_elements(self, indices: np.ndarray) -> None:
        nbytes = len(indices) * self._itemsize
        self._platform.clock.advance(
            clk.DEVICE_MEM, nbytes / self._platform.cost.device_bandwidth
        )

    def _charge_ranges(self, starts, ends, flat=None) -> None:
        nbytes = int((np.asarray(ends) - np.asarray(starts)).sum()) * self._itemsize
        self._platform.clock.advance(
            clk.DEVICE_MEM, nbytes / self._platform.cost.device_bandwidth
        )

    def release(self) -> None:
        self._platform.device.free(self._allocation)
        super().release()
