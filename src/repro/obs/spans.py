"""Hierarchical telemetry spans: run → phase → level → kernel.

A span is a timed region of the run that snapshots the platform's global
:class:`~repro.gpusim.stats.Counters` and :class:`~repro.gpusim.clock.SimClock`
buckets at entry and exit, so every region gets its own *inclusive* delta
(everything charged while it was open) and *self* delta (inclusive minus the
children's inclusive deltas).  Self deltas partition the run exactly: summed
over every span they reproduce the platform's global totals, which is the
invariant ``tests/obs/test_spans.py`` pins.

Two implementations share one interface:

* :data:`NULL_TELEMETRY` — the default.  Every hook is a no-op and
  ``span()`` returns one cached no-op context manager, so instrumented hot
  paths pay a single attribute load + truthiness test when nobody is
  listening (``benchmarks/perf`` reports it as ``obs.collector_overhead_frac``).
* :class:`SpanCollector` — records spans, metrics, and gauges for the
  exporters in :mod:`repro.obs.exporters` and the manifest in
  :mod:`repro.obs.manifest`.

This module is deliberately stdlib-only at import time so
``repro.gpusim.platform`` can import it without a cycle.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry

#: Span kinds used by the built-in instrumentation, outermost first.
RUN = "run"
PHASE = "phase"
LEVEL = "level"
STAGE = "stage"
KERNEL = "kernel"


class _NullSpan:
    """The no-op context manager returned by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Telemetry sink that drops everything, as cheaply as possible."""

    __slots__ = ()

    #: Hot paths branch on this before building metric payloads.
    active = False

    def span(self, name: str, kind: str = PHASE,
             level: "int | None" = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def metric(self, name: str, value: float, **labels: Any) -> None:
        pass

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        pass


#: Shared do-nothing sink; platforms point at this until a collector binds.
NULL_TELEMETRY = NullTelemetry()


class Span:
    """One recorded region.  Built by :class:`SpanCollector`, read by
    exporters; not constructed directly by instrumentation code."""

    __slots__ = (
        "index", "name", "kind", "level", "parent", "depth", "attrs",
        "t0", "t1", "sim0", "sim1",
        "counters", "counters_self", "sim_buckets", "sim_self",
        "_entry_counters", "_entry_buckets", "_child_counters",
        "_child_buckets", "_child_wall",
    )

    def __init__(self, index: int, name: str, kind: str,
                 level: "int | None", parent: int, depth: int,
                 attrs: Dict[str, Any]) -> None:
        self.index = index
        self.name = name
        self.kind = kind
        self.level = level
        self.parent = parent          # parent span index, -1 for the root
        self.depth = depth
        self.attrs = attrs
        self.t0 = 0.0                 # wall-clock perf_counter() bounds
        self.t1 = 0.0
        self.sim0 = 0.0               # simulated-clock bounds (total seconds)
        self.sim1 = 0.0
        self.counters: Dict[str, int] = {}        # inclusive deltas
        self.counters_self: Dict[str, int] = {}   # inclusive minus children
        self.sim_buckets: Dict[str, float] = {}
        self.sim_self: Dict[str, float] = {}
        self._entry_counters: "Dict[str, int] | None" = None
        self._entry_buckets: "Dict[str, float] | None" = None
        self._child_counters: Dict[str, int] = {}
        self._child_buckets: Dict[str, float] = {}
        self._child_wall = 0.0

    @property
    def wall_seconds(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    @property
    def wall_self_seconds(self) -> float:
        return max(self.wall_seconds - self._child_wall, 0.0)

    @property
    def sim_seconds(self) -> float:
        return max(self.sim1 - self.sim0, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, depth={self.depth}, "
                f"wall={self.wall_seconds:.3e}s, sim={self.sim_seconds:.3e}s)")


class _SpanContext:
    """Context manager handed out by :meth:`SpanCollector.span`."""

    __slots__ = ("_collector", "_name", "_kind", "_level", "_attrs", "_span")

    def __init__(self, collector: "SpanCollector", name: str, kind: str,
                 level: "int | None", attrs: Dict[str, Any]) -> None:
        self._collector = collector
        self._name = name
        self._kind = kind
        self._level = level
        self._attrs = attrs
        self._span: "Span | None" = None

    def __enter__(self) -> Span:
        self._span = self._collector._open(
            self._name, self._kind, self._level, self._attrs)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        assert self._span is not None
        self._collector._close(self._span)
        return False


def _delta_int(now: Dict[str, int], then: Dict[str, int]) -> Dict[str, int]:
    return {k: d for k, v in now.items() if (d := v - then.get(k, 0))}


def _delta_float(now: Dict[str, float],
                 then: Dict[str, float]) -> Dict[str, float]:
    return {k: d for k, v in now.items() if (d := v - then.get(k, 0.0)) > 0.0}


def _subtract_children(inclusive: Dict[str, Any],
                       children: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in inclusive.items():
        rest = value - children.get(key, 0)
        # Counters are exact ints; sim buckets can pick up float dust.
        if rest > (0.0 if isinstance(rest, float) else 0):
            out[key] = rest
    return out


class SpanCollector:
    """Records a tree of spans plus a :class:`MetricsRegistry`.

    Typical use (what the CLI and benchmarks do)::

        collector = SpanCollector()
        install(collector)            # next platform constructed binds itself
        engine = build_engine(...)    # GpuPlatform.__init__ calls adopt_platform
        run(engine)
        collector.finish()            # closes the root span, polls gauges

    Or bind explicitly when the platform already exists (tests)::

        collector = SpanCollector().attach(platform)

    Binding at platform construction matters: the root ``run`` span's entry
    snapshot is then the all-zero state, so its inclusive deltas equal the
    platform's lifetime totals.
    """

    active = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: List[Span] = []
        self._platform: Any = None
        self._t0 = time.perf_counter()
        self._finished = False

    # -- lifecycle ----------------------------------------------------------
    def bind(self, platform: Any) -> "SpanCollector":
        """Point this collector at ``platform`` and open the root span."""
        if self._platform is not None:
            raise RuntimeError("SpanCollector is already bound to a platform")
        self._platform = platform
        platform.attach_telemetry(self)
        if not self._stack:
            self._open("run", RUN, None, {})
        return self

    #: Alias matching ``TraceRecorder.attach`` for symmetry in tests.
    attach = bind

    def finish(self) -> "SpanCollector":
        """Close any open spans (root included) and poll gauges."""
        if self._finished:
            return self
        self._finished = True
        self.metrics.poll_gauges(t=time.perf_counter() - self._t0)
        while self._stack:
            self._close(self._stack[-1])
        if _default_collector() is self:
            uninstall(self)
        if self._platform is not None:
            self._platform.detach_telemetry()
        return self

    def __enter__(self) -> "SpanCollector":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    # -- recording ----------------------------------------------------------
    def span(self, name: str, kind: str = PHASE,
             level: "int | None" = None, **attrs: Any) -> _SpanContext:
        """A context manager recording one span under the current one."""
        return _SpanContext(self, name, kind, level, attrs)

    def metric(self, name: str, value: float, **labels: Any) -> None:
        """Record one metric sample, tagged with the open span (if any)."""
        span = self._stack[-1].index if self._stack else None
        self.metrics.record(name, value, labels=labels,
                            t=time.perf_counter() - self._t0, span=span)

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register ``fn`` to be sampled once at :meth:`finish`."""
        self.metrics.gauge(name, fn)

    def _open(self, name: str, kind: str, level: "int | None",
              attrs: Dict[str, Any]) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            index=len(self.spans), name=name, kind=kind, level=level,
            parent=parent.index if parent else -1,
            depth=parent.depth + 1 if parent else 0, attrs=attrs,
        )
        platform = self._platform
        if platform is not None:
            span._entry_counters = platform.counters.snapshot(include_zero=True)
            span._entry_buckets = platform.clock.snapshot()
            span.sim0 = platform.clock.total
        self.spans.append(span)
        self._stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order exits (generators torn down late): close
        # every span opened after this one first.
        while self._stack and self._stack[-1] is not span:
            self._close(self._stack[-1])
        if self._stack:
            self._stack.pop()
        span.t1 = time.perf_counter()
        platform = self._platform
        if platform is not None:
            span.sim1 = platform.clock.total
            entry_c = span._entry_counters or {}
            entry_b = span._entry_buckets or {}
            span.counters = _delta_int(
                platform.counters.snapshot(include_zero=True), entry_c)
            span.sim_buckets = _delta_float(platform.clock.snapshot(), entry_b)
        span.counters_self = _subtract_children(
            span.counters, span._child_counters)
        span.sim_self = _subtract_children(span.sim_buckets,
                                           span._child_buckets)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            for key, value in span.counters.items():
                parent._child_counters[key] = \
                    parent._child_counters.get(key, 0) + value
            for key, fvalue in span.sim_buckets.items():
                parent._child_buckets[key] = \
                    parent._child_buckets.get(key, 0.0) + fvalue
            parent._child_wall += span.wall_seconds

    # -- inspection ---------------------------------------------------------
    @property
    def root(self) -> "Span | None":
        return self.spans[0] if self.spans else None

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def walk(self) -> Iterator[Span]:
        return iter(self.spans)

    def max_depth(self) -> int:
        return max((s.depth for s in self.spans), default=-1) + 1

    def self_counter_totals(self) -> Dict[str, int]:
        """Sum of every span's *self* counter deltas.

        Equals the platform's global counter totals when the collector was
        bound at platform construction — the partition invariant.
        """
        totals: Dict[str, int] = {}
        for span in self.spans:
            for key, value in span.counters_self.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def self_sim_totals(self) -> Dict[str, float]:
        """Sum of every span's *self* simulated-time deltas."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            for key, value in span.sim_self.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    # -- grafting -----------------------------------------------------------
    def graft_records(self, records: List[Dict[str, Any]],
                      shard: "int | None" = None) -> List[Span]:
        """Re-root a worker collector's exported span records here.

        ``records`` is the :func:`repro.obs.exporters.span_tree_records`
        form a shard worker ships back over the pipe.  Indices are rebased
        past the spans already recorded, record roots re-parent under the
        currently open span (the coordinator's ``run`` root), and the
        record roots' *inclusive* deltas are charged to that anchor's child
        accumulators — so the anchor's eventual self deltas stay exact and
        the partition invariant (:meth:`self_counter_totals` equals the
        summed worker totals) survives the graft.
        """
        base = len(self.spans)
        anchor = self._stack[-1] if self._stack else None
        depth0 = anchor.depth + 1 if anchor is not None else 0
        grafted: List[Span] = []
        for record in records:
            parent = int(record.get("parent", -1))
            attrs: Dict[str, Any] = {"grafted": True}
            if shard is not None:
                attrs["shard"] = shard
            span = Span(
                index=base + int(record["index"]),
                name=record["name"], kind=record["kind"],
                level=record.get("level"),
                parent=(base + parent if parent >= 0
                        else (anchor.index if anchor is not None else -1)),
                depth=int(record.get("depth", 0)) + depth0,
                attrs=attrs,
            )
            wall = float(record.get("wall_seconds", 0.0))
            span.t1 = wall
            span._child_wall = max(
                wall - float(record.get("wall_self_seconds", 0.0)), 0.0)
            span.sim1 = float(record.get("sim_seconds", 0.0))
            span.counters = dict(record.get("counters", {}))
            span.counters_self = dict(record.get("counters_self", {}))
            span.sim_buckets = dict(record.get("sim_buckets", {}))
            span.sim_self = dict(record.get("sim_self", {}))
            self.spans.append(span)
            grafted.append(span)
            if parent < 0 and anchor is not None:
                for key, value in span.counters.items():
                    anchor._child_counters[key] = \
                        anchor._child_counters.get(key, 0) + value
                for key, fvalue in span.sim_buckets.items():
                    anchor._child_buckets[key] = \
                        anchor._child_buckets.get(key, 0.0) + fvalue
                anchor._child_wall += span.wall_seconds
        return grafted


# ---------------------------------------------------------------------------
# Default-collector slot.  ``GpuPlatform.__init__`` calls
# :func:`adopt_platform`, so a collector installed *before* the engine is
# built covers platform construction in its root span — the CLI relies on
# this because platforms are created deep inside the system factories.
# ---------------------------------------------------------------------------

_DEFAULT: "Optional[SpanCollector]" = None


def install(collector: SpanCollector) -> SpanCollector:
    """Make ``collector`` adopt the next platform constructed."""
    global _DEFAULT
    _DEFAULT = collector
    return collector


def uninstall(collector: "SpanCollector | None" = None) -> None:
    """Clear the default slot (optionally only if it holds ``collector``)."""
    global _DEFAULT
    if collector is None or _DEFAULT is collector:
        _DEFAULT = None


def _default_collector() -> "Optional[SpanCollector]":
    return _DEFAULT


def adopt_platform(platform: Any) -> None:
    """Bind the installed default collector to ``platform`` (first one wins).

    Called from ``GpuPlatform.__init__``; a no-op unless :func:`install`
    was used and the collector is still unbound.
    """
    if _DEFAULT is not None and _DEFAULT._platform is None:
        _DEFAULT.bind(platform)
