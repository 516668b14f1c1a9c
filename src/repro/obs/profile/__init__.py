"""Profiling over recorded span trees.

Two layers, both reading recorded telemetry rather than producing it
(hence the gammalint ``obs-profile`` exemption from the obs-span rule):

* :mod:`~repro.obs.profile.critical_path` — walk a run's span tree and
  emit the simulated-time critical path, inclusive/self attribution per
  subtree, and the hot-subtree ranking;
* :mod:`~repro.obs.profile.straggler` — per-barrier straggler analysis
  for sharded BSP runs (which shard gated each superstep, utilization
  skew, exchange-bytes share).

See docs/OBSERVABILITY.md ("Profiling").
"""

from .critical_path import (
    critical_path,
    critical_path_report,
    hot_subtrees,
    render_critical_path,
)
from .spantree import SpanNode, build_tree
from .straggler import render_straggler_report, straggler_report

__all__ = [
    "SpanNode",
    "build_tree",
    "critical_path",
    "critical_path_report",
    "hot_subtrees",
    "render_critical_path",
    "straggler_report",
    "render_straggler_report",
]
