"""Unified telemetry: hierarchical spans, metrics, exporters, manifests.

The observability layer ties the simulator's three existing signals —
event :class:`~repro.gpusim.stats.Counters`, the simulated
:class:`~repro.gpusim.clock.SimClock`, and wall-clock phase timing — into
one span tree (run → phase → level → kernel) with machine-readable
exports.  See ``docs/OBSERVABILITY.md`` for the span model, the Chrome
trace / JSONL formats, and the manifest-diff regression gate.

The analysis layer on top — critical-path profiling and the straggler
report — lives in :mod:`repro.obs.profile` (imported on demand; it is
not needed on the hot telemetry path).
"""

from .exporters import (
    chrome_trace,
    chrome_trace_events,
    metrics_jsonl_lines,
    render_bars,
    render_span_tree,
    span_tree_records,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .manifest import (
    attach_query_tags,
    build_manifest,
    diff_manifests,
    format_findings,
    git_revision,
    load_manifest,
    write_manifest,
)
from .metrics import MetricSample, MetricsRegistry
from .spans import (
    NULL_TELEMETRY,
    NullTelemetry,
    Span,
    SpanCollector,
    adopt_platform,
    install,
    uninstall,
)

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Span",
    "SpanCollector",
    "MetricSample",
    "MetricsRegistry",
    "adopt_platform",
    "install",
    "uninstall",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "metrics_jsonl_lines",
    "write_metrics_jsonl",
    "render_bars",
    "render_span_tree",
    "span_tree_records",
    "attach_query_tags",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "diff_manifests",
    "format_findings",
    "git_revision",
]
