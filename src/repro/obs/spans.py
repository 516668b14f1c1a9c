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

import math
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

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
    """One recorded region, and the context manager that records it.
    :meth:`SpanCollector.span` hands it out, opened when entered.  Read by
    exporters; not constructed directly by instrumentation code.

    While the run is timed a span keeps only the raw counter and bucket
    snapshots taken at its entry and exit, and its closed children; its
    deltas (``counters``, ``counters_self``, ``sim_buckets``, ``sim_self``,
    ``sim0``/``sim1``) are worked out once, on first read after it closed.
    """

    __slots__ = (
        "index", "name", "kind", "level", "parent", "depth", "attrs",
        "t0", "t1", "_collector", "_entry", "_exit", "_children",
        "_child_wall", "_books",
    )

    def __init__(self, collector: "SpanCollector | None", name: str,
                 kind: str, level: "int | None", attrs: Dict[str, Any],
                 index: int = -1, parent: int = -1, depth: int = 0) -> None:
        self._collector = collector
        self.index = index
        self.name = name
        self.kind = kind
        self.level = level
        self.parent = parent          # parent span index, -1 for the root
        self.depth = depth
        self.attrs = attrs
        self.t0 = 0.0                 # wall-clock perf_counter() bounds
        self.t1 = 0.0
        #: ``(counters, buckets)`` snapshots at entry / exit (None unbound).
        self._entry: "tuple | None" = None
        self._exit: "tuple | None" = None
        self._children: List["Span"] = []   # closed children, in close order
        self._child_wall = 0.0
        #: ``(counters, counters_self, sim_buckets, sim_self, sim0, sim1)``.
        self._books: "tuple | None" = None

    def _resolved(self) -> tuple:
        if self._books is not None:
            return self._books
        entry_c, entry_b = self._entry or ({}, {})
        if self._exit is None:  # still open, or never bound: nothing yet
            return {}, {}, {}, {}, math.fsum(entry_b.values()), 0.0
        exit_c, exit_b = self._exit
        counters = {k: d for k, v in exit_c.items() if (d := v - entry_c.get(k, 0))}
        buckets = {k: d for k, v in exit_b.items() if (d := v - entry_b.get(k, 0.0)) > 0.0}
        kids = self._children
        self._books = (
            counters, _subtract_children(counters, [c.counters for c in kids]),
            buckets, _subtract_children(buckets, [c.sim_buckets for c in kids]),
            math.fsum(entry_b.values()), math.fsum(exit_b.values()))
        return self._books

    counters = property(lambda self: self._resolved()[0])
    counters_self = property(lambda self: self._resolved()[1])
    sim_buckets = property(lambda self: self._resolved()[2])
    sim_self = property(lambda self: self._resolved()[3])
    sim0 = property(lambda self: self._resolved()[4])
    sim1 = property(lambda self: self._resolved()[5])

    @property
    def wall_seconds(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    @property
    def wall_self_seconds(self) -> float:
        return max(self.wall_seconds - self._child_wall, 0.0)

    @property
    def sim_seconds(self) -> float:
        return max(self.sim1 - self.sim0, 0.0)

    def __enter__(self) -> "Span":
        assert self._collector is not None
        return self._collector._open(self)

    def __exit__(self, *exc_info: object) -> bool:
        assert self._collector is not None
        self._collector._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, depth={self.depth}, "
                f"wall={self.wall_seconds:.3e}s, sim={self.sim_seconds:.3e}s)")


def _summed(deltas: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-key sums, in iteration order."""
    out: Dict[str, Any] = {}
    for delta in deltas:
        for key, value in delta.items():
            out[key] = out.get(key, 0) + value
    return out


def _subtract_children(inclusive: Dict[str, Any],
                       children: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``inclusive`` minus the children's summed deltas (in close order),
    positive entries only: sim buckets can pick up float dust."""
    summed = _summed(children)
    return {key: rest for key, value in inclusive.items()
            if (rest := value - summed.get(key, 0)) > 0}


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
            self._open(Span(self, "run", RUN, None, {}))
        return self

    #: Alias of :meth:`bind`.
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
             level: "int | None" = None, **attrs: Any) -> Span:
        """A context manager recording one span under the current one."""
        return Span(self, name, kind, level, attrs)

    def metric(self, name: str, value: float, **labels: Any) -> None:
        """Record one metric sample, tagged with the open span (if any)."""
        span = self._stack[-1].index if self._stack else None
        self.metrics.record(name, value, labels=labels,
                            t=time.perf_counter() - self._t0, span=span)

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register ``fn`` to be sampled once at :meth:`finish`."""
        self.metrics.gauge(name, fn)

    def _open(self, span: Span) -> Span:
        span.index = len(self.spans)
        if self._stack:
            span.parent, span.depth = self._stack[-1].index, self._stack[-1].depth + 1
        platform = self._platform
        if platform is not None:
            span._entry = (platform.counters.snapshot(include_zero=True),
                           platform.clock.snapshot())
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
            span._exit = (platform.counters.snapshot(include_zero=True),
                          platform.clock.snapshot())
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent._children.append(span)
            parent._child_wall += span.wall_seconds

    # -- inspection ---------------------------------------------------------
    @property
    def root(self) -> "Span | None":
        return self.spans[0] if self.spans else None

    def walk(self) -> Iterator[Span]:
        return iter(self.spans)

    def max_depth(self) -> int:
        return max((s.depth for s in self.spans), default=-1) + 1

    def self_counter_totals(self) -> Dict[str, int]:
        """Sum of every span's *self* counter deltas.

        Equals the platform's global counter totals when the collector was
        bound at platform construction — the partition invariant.
        """
        return _summed(span.counters_self for span in self.spans)

    def self_sim_totals(self) -> Dict[str, float]:
        """Sum of every span's *self* simulated-time deltas."""
        return _summed(span.sim_self for span in self.spans)

    # -- grafting -----------------------------------------------------------
    def graft_records(self, records: List[Dict[str, Any]],
                      shard: "int | None" = None,
                      samples: "List[Dict[str, Any]]" = ()) -> List[Span]:
        """Re-root a worker collector's exported span records here.

        ``records`` is the :func:`repro.obs.exporters.span_tree_records`
        form a shard worker ships back over the pipe.  Indices are rebased
        past the spans already recorded, record roots re-parent under the
        currently open span (the coordinator's ``run`` root) and join its
        children, whose *inclusive* deltas its self deltas subtract — so the
        partition invariant (:meth:`self_counter_totals` equals the summed
        worker totals) survives the graft.  ``samples`` are the same
        worker's metric samples (:meth:`MetricSample.to_json`): they join
        this collector's, labelled with ``shard`` and pointing at their
        grafted spans.
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
                None, record["name"], record["kind"], record.get("level"),
                attrs, index=base + int(record["index"]),
                parent=(base + parent if parent >= 0
                        else (anchor.index if anchor is not None else -1)),
                depth=int(record.get("depth", 0)) + depth0,
            )
            wall = float(record.get("wall_seconds", 0.0))
            span.t1 = wall
            span._child_wall = max(
                wall - float(record.get("wall_self_seconds", 0.0)), 0.0)
            span._books = (
                dict(record.get("counters", {})),
                dict(record.get("counters_self", {})),
                dict(record.get("sim_buckets", {})),
                dict(record.get("sim_self", {})),
                0.0, float(record.get("sim_seconds", 0.0)))
            self.spans.append(span)
            grafted.append(span)
            if parent < 0 and anchor is not None:
                anchor._children.append(span)
                anchor._child_wall += span.wall_seconds
        tag = {} if shard is None else {"shard": shard}
        for sample in samples:
            span_index = sample.get("span")
            self.metrics.record(
                sample["name"], sample["value"],
                labels={**sample.get("labels", {}), **tag}, t=sample["t"],
                span=None if span_index is None else base + span_index)
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
