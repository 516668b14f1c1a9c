"""Wall-clock phase timing for the CLI's ``--profile`` flag.

Where the *simulated* time went is in the partitions'
:class:`~repro.gpusim.clock.SimClock` buckets, which ``repro run
--breakdown`` renders.  :class:`PhaseTimer` answers the other question —
where the simulator process spends *your* time — in the same bar layout:

    run-task      ############################------------   70.1%      41.200 ms
    build-engine  ###########-----------------------------   27.3%      16.030 ms
    ...
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from ..obs.exporters import render_bars


class PhaseTimer:
    """Wall-clock (host) time per named phase of a run.

    The simulated breakdown answers "where would the *GPU* spend its
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
