"""Simulated-time accounting.

The simulator never consults wall-clock time: every component charges
simulated seconds to a :class:`SimClock`, split by category so benchmarks can
report where time went (compute vs. PCIe vs. page-fault handling vs. host
preparation), mirroring the per-component analysis in the paper's §VI.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, Iterator, List

#: Canonical category names used across the simulator.
COMPUTE = "compute"
DEVICE_MEM = "device_mem"
PCIE_UNIFIED = "pcie_unified"
PCIE_ZEROCOPY = "pcie_zerocopy"
PCIE_EXPLICIT = "pcie_explicit"
PAGE_FAULT = "page_fault"
KERNEL_LAUNCH = "kernel_launch"
HOST_PREP = "host_prep"
CPU_COMPUTE = "cpu_compute"
#: Inter-GPU peer traffic (sharded execution; repro.gpusim.interconnect).
INTERCONNECT = "interconnect"
#: Barrier idle time a shard spends waiting for slower peers.
SHARD_SYNC = "shard_sync"

ALL_CATEGORIES = (
    COMPUTE,
    DEVICE_MEM,
    PCIE_UNIFIED,
    PCIE_ZEROCOPY,
    PCIE_EXPLICIT,
    PAGE_FAULT,
    KERNEL_LAUNCH,
    HOST_PREP,
    CPU_COMPUTE,
    INTERCONNECT,
    SHARD_SYNC,
)


class SimClock:
    """Accumulates simulated time, bucketed by category.

    Charging a negative duration is rejected: simulated time only moves
    forward.  Unknown categories are accepted so subsystems can introduce
    finer-grained buckets without registering them first.
    """

    def __init__(self) -> None:
        self._buckets: Dict[str, float] = defaultdict(float)
        #: Callables ``(category, seconds)`` notified on every charge
        #: (see :class:`repro.gpusim.trace.TraceRecorder`).  Fan-out: any
        #: number of listeners may subscribe via :meth:`add_listener`.
        #: The deprecated single-slot ``listener`` property shim was
        #: removed; ``tests/gpusim/test_trace.py`` pins its absence.
        self._listeners: List[Callable[[str, float], None]] = []

    def add_listener(
        self, fn: Callable[[str, float], None]
    ) -> Callable[[str, float], None]:
        """Subscribe ``fn`` to every charge; returns ``fn``."""
        self._listeners.append(fn)
        return fn

    def remove_listener(self, fn: Callable[[str, float], None]) -> None:
        """Unsubscribe ``fn`` (no-op when not subscribed)."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def advance(self, category: str, seconds: float) -> None:
        """Charge ``seconds`` of simulated time to ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if seconds:
            self._buckets[category] += seconds
            if self._listeners:
                for fn in self._listeners:
                    fn(category, seconds)

    @property
    def total(self) -> float:
        """Total simulated seconds across all categories.

        Exactly-rounded (``math.fsum``), so the result does not depend on
        bucket insertion order: a clock restored from a checkpoint and one
        that accrued the same buckets live report bit-identical totals —
        sharded barriers compute waits from this value, and residual-ulp
        drift there would break resume bit-parity.
        """
        return math.fsum(self._buckets.values())

    def time_in(self, category: str) -> float:
        """Simulated seconds charged to ``category`` so far."""
        return self._buckets.get(category, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """A copy of all non-zero buckets (no bucket is zero: :meth:`advance`
        and :meth:`restore` skip zero charges)."""
        return dict(self._buckets)

    def reset(self) -> None:
        """Zero every bucket."""
        self._buckets.clear()

    def restore(self, buckets: Dict[str, float]) -> None:
        """Overwrite every bucket from a :meth:`snapshot` mapping.

        Used by checkpoint resume: the engine is rebuilt (charging whatever
        construction costs), then the clock is restored to the exact state
        the checkpoint recorded.  Listeners are *not* notified — restore is
        bookkeeping, not simulated activity.
        """
        self._buckets.clear()
        for category, seconds in buckets.items():
            if seconds:
                self._buckets[str(category)] = float(seconds)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._buckets.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3e}" for k, v in self)
        return f"SimClock(total={self.total:.3e}, {parts})"


class ClockSection:
    """Context manager measuring the simulated time a block of code charges.

    Useful in tests and the benchmark harness::

        with ClockSection(clock) as section:
            engine.run()
        assert section.elapsed > 0
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "ClockSection":
        self._start = self._clock.total
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = self._clock.total - self._start
