"""Execution tracing: where did the simulated time go?

A :class:`TraceRecorder` subscribes to a platform's clock and accumulates
per-category time (optionally as an ordered event log).  Its ASCII
rendering answers the first question every benchmark raises — "what is the
bottleneck?" — without a profiler:

    compute       ############################------------  58.1%   1.23 ms
    pcie_unified  ###########-----------------------------  24.0%   0.51 ms
    ...

The CLI exposes it as ``repro run ... --breakdown``.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from ..obs.exporters import render_bars
from .clock import SimClock
from .platform import GpuPlatform


class TraceRecorder:
    """Accumulates charged time by category (and optionally per event)."""

    def __init__(self, keep_events: bool = False) -> None:
        self._by_category: Dict[str, float] = defaultdict(float)
        self._keep_events = keep_events
        self.events: List[Tuple[float, str, float]] = []
        self._elapsed = 0.0

    # -- collection -----------------------------------------------------------
    def __call__(self, category: str, seconds: float) -> None:
        """Clock listener hook."""
        self._by_category[category] += seconds
        self._elapsed += seconds
        if self._keep_events:
            self.events.append((self._elapsed, category, seconds))

    def attach(self, target: "GpuPlatform | SimClock") -> "TraceRecorder":
        """Subscribe to a platform's (or clock's) charges; returns self.

        Fan-out: other listeners (another recorder, a span collector)
        keep receiving charges.
        """
        clock = target.clock if isinstance(target, GpuPlatform) else target
        clock.add_listener(self)
        return self

    def detach(self, target: "GpuPlatform | SimClock") -> "TraceRecorder":
        """Unsubscribe from a platform's (or clock's) charges."""
        clock = target.clock if isinstance(target, GpuPlatform) else target
        clock.remove_listener(self)
        return self

    # -- reporting --------------------------------------------------------------
    @property
    def total(self) -> float:
        # math.fsum: exactly rounded, so the total is independent of the
        # order categories were first charged in — same bit-parity rule
        # SimClock.total follows (checkpoint-restored runs repopulate the
        # dict in manifest order, not charge order).
        return math.fsum(self._by_category.values())

    def summary(self) -> List[Tuple[str, float, float]]:
        """``(category, seconds, share)`` rows, largest first."""
        total = self.total
        rows = sorted(
            self._by_category.items(), key=lambda kv: -kv[1]
        )
        return [
            (name, seconds, (seconds / total if total else 0.0))
            for name, seconds in rows
            if seconds > 0
        ]

    def as_dict(self) -> Dict[str, float]:
        """Non-zero per-category seconds as a plain dict (JSON-stable)."""
        return {name: seconds
                for name, seconds in sorted(self._by_category.items())
                if seconds > 0}

    def render(self, width: int = 40) -> str:
        """ASCII breakdown bars (one :func:`repro.obs.render_bars` view)."""
        return render_bars(self.summary(), width,
                           empty="(no simulated time charged)")

    def reset(self) -> None:
        self._by_category.clear()
        self.events.clear()
        self._elapsed = 0.0


class PhaseTimer:
    """Wall-clock (host) time per named phase of a run.

    The simulated breakdown above answers "where would the *GPU* spend its
    time"; this answers "where does the *simulator process* spend yours" —
    the quantity the CLI's ``--profile`` flag prints alongside the
    simulated breakdown.  Phases
    repeat freely; repeated names accumulate.  Phases may nest: each phase
    is charged its *self* time only (the enclosed inner phases' time is
    subtracted), so the per-phase seconds always partition the measured
    wall time and ``total`` never double-counts.
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._seconds: Dict[str, float] = defaultdict(float)
        #: Open-phase stack: ``[name, start, inner_seconds]`` frames.
        self._stack: List[list] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (self time if nested)."""
        if name not in self._seconds:
            self._order.append(name)
            self._seconds[name] = 0.0
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            gross = time.perf_counter() - frame[1]
            self._stack.pop()
            self._seconds[name] += gross - frame[2]
            if self._stack:
                self._stack[-1][2] += gross

    @property
    def total(self) -> float:
        return math.fsum(self._seconds.values())

    def seconds(self, name: str) -> float:
        """Accumulated self time of ``name`` (0.0 if never entered)."""
        return self._seconds.get(name, 0.0)

    def summary(self) -> List[Tuple[str, float, float]]:
        """``(phase, seconds, share)`` rows in recording order."""
        total = self.total
        return [
            (name, self._seconds[name],
             (self._seconds[name] / total if total else 0.0))
            for name in self._order
        ]

    def as_dict(self) -> Dict[str, float]:
        """Per-phase self seconds in recording order (JSON-stable)."""
        return {name: self._seconds[name] for name in self._order}

    def render(self, width: int = 40) -> str:
        """ASCII per-phase wall-clock bars (same layout as the simulated
        breakdown so the two print side by side)."""
        rows = self.summary()
        if not rows:
            return "(no phases recorded)"
        name_width = max(len(name) for name, __, __ in rows)
        lines = [render_bars(rows, width)]
        lines.append(
            f"{'total'.ljust(name_width)}  {' ' * width}  100.0%  "
            f"{self.total * 1e3:10.3f} ms"
        )
        return "\n".join(lines)
