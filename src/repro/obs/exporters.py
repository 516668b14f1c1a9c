"""Exporters: Chrome trace-event JSON, JSONL metrics, ASCII renderings.

Three consumers, one span tree:

* :func:`write_chrome_trace` emits the Trace Event Format that Perfetto and
  ``chrome://tracing`` load (``{"traceEvents": [...]}`` with complete
  ``ph: "X"`` events).  Two tracks: pid 0 positions spans on the *wall*
  clock; pid 1 replays the same spans on the *simulated* clock, which is
  what the paper's figures are drawn in.
* :func:`write_metrics_jsonl` streams every metric sample as one JSON
  object per line.
* :func:`render_bars` is the ASCII bar layout of ``repro run
  --breakdown`` (the partitions' summed clock buckets), ``repro report``
  and :class:`repro.gpusim.trace.PhaseTimer`, and :func:`render_span_tree`
  is the span-tree flavour used by ``repro report``.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, List, Sequence, Tuple

from .spans import SpanCollector

_US = 1e6  # trace-event timestamps are microseconds


def span_tree_records(collector: SpanCollector) -> List[Dict[str, Any]]:
    """Flatten the collector's spans into JSON-stable records.

    One plain dict per span (index/parent links, inclusive and self wall
    and simulated time, counter and bucket deltas) — the portable form the
    profiler layer (:mod:`repro.obs.profile`) rebuilds trees from.
    """
    records: List[Dict[str, Any]] = []
    for span in collector.walk():
        records.append({
            "index": span.index,
            "parent": span.parent,
            "name": span.name,
            "kind": span.kind,
            "level": span.level,
            "depth": span.depth,
            "wall_seconds": span.wall_seconds,
            "wall_self_seconds": span.wall_self_seconds,
            "sim_seconds": span.sim_seconds,
            "sim_self_seconds": math.fsum(span.sim_self.values()),
            "sim_buckets": dict(span.sim_buckets),
            "sim_self": dict(span.sim_self),
            "counters": dict(span.counters),
            "counters_self": dict(span.counters_self),
        })
    return records


def render_bars(rows: Sequence[Tuple[str, float, float]],
                width: int = 40,
                empty: str = "(nothing recorded)") -> str:
    """``name  ###---  12.3%  4.567 ms`` lines for (name, seconds, share)."""
    if not rows:
        return empty
    name_width = max(len(name) for name, __, __ in rows)
    lines = []
    for name, seconds, share in rows:
        filled = int(round(share * width))
        bar = "#" * filled + "-" * (width - filled)
        lines.append(
            f"{name.ljust(name_width)}  {bar}  {share * 100:5.1f}%  "
            f"{seconds * 1e3:10.3f} ms"
        )
    return "\n".join(lines)


def render_span_tree(collector: SpanCollector, max_depth: "int | None" = None,
                     top_counters: int = 3) -> str:
    """Indented span tree with wall/sim time and the largest self deltas."""
    lines: List[str] = []
    for span in collector.walk():
        if max_depth is not None and span.depth > max_depth:
            continue
        head = f"{'  ' * span.depth}{span.name}"
        if span.level is not None:
            head += f" [level {span.level}]"
        cells = [f"wall {span.wall_seconds * 1e3:9.3f} ms",
                 f"sim {span.sim_seconds * 1e3:9.3f} ms"]
        hot = sorted(span.counters_self.items(), key=lambda kv: -kv[1])
        if hot:
            cells.append(", ".join(
                f"{name}={value}" for name, value in hot[:top_counters]))
        lines.append(f"{head:<44} {'  '.join(cells)}")
    return "\n".join(lines) if lines else "(no spans recorded)"


def chrome_trace_events(collector: SpanCollector) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for the Trace Event Format."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "wall clock"}},
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "simulated GPU"}},
    ]
    root = collector.root
    base = root.t0 if root is not None else 0.0
    for span in collector.walk():
        args: Dict[str, Any] = {"kind": span.kind}
        if span.level is not None:
            args["level"] = span.level
        if span.attrs:
            args.update(span.attrs)
        if span.counters:
            args["counters"] = span.counters
        if span.sim_buckets:
            args["sim_seconds"] = round(span.sim_seconds, 9)
        events.append({
            "ph": "X", "pid": 0, "tid": 0, "cat": span.kind,
            "name": span.name,
            "ts": round((span.t0 - base) * _US, 3),
            "dur": round(span.wall_seconds * _US, 3),
            "args": args,
        })
        # The simulated track only carries spans that charged sim time;
        # nesting is preserved because the sim clock is monotone.
        if span.sim1 > span.sim0:
            events.append({
                "ph": "X", "pid": 1, "tid": 0, "cat": span.kind,
                "name": span.name,
                "ts": round(span.sim0 * _US, 6),
                "dur": round(span.sim_seconds * _US, 6),
                "args": {"kind": span.kind},
            })
    for sample in collector.metrics.samples:
        if sample.labels:
            continue  # labelled samples stay in the JSONL stream
        events.append({
            "ph": "C", "pid": 0, "tid": 0, "name": sample.name,
            "ts": round(sample.t * _US, 3),
            "args": {"value": sample.value},
        })
    return events


def chrome_trace(collector: SpanCollector) -> Dict[str, Any]:
    return {"traceEvents": chrome_trace_events(collector),
            "displayTimeUnit": "ms"}


def write_chrome_trace(collector: SpanCollector,
                       path: "str | pathlib.Path") -> pathlib.Path:
    """Write a Perfetto-loadable trace; returns the path written."""
    target = pathlib.Path(path)
    target.write_text(json.dumps(chrome_trace(collector)))
    return target


def metrics_jsonl_lines(collector: SpanCollector) -> List[str]:
    return [json.dumps(sample.to_json())
            for sample in collector.metrics.samples]


def write_metrics_jsonl(collector: SpanCollector,
                        path: "str | pathlib.Path") -> pathlib.Path:
    """One JSON object per metric sample; returns the path written."""
    target = pathlib.Path(path)
    lines = metrics_jsonl_lines(collector)
    target.write_text("\n".join(lines) + ("\n" if lines else ""))
    return target
