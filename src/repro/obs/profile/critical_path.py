"""Critical-path analysis over a recorded span tree.

The simulator's span tree is sequential within one platform — children of
a span execute one after another — so the *critical path* of a run is the
chain of spans you would attack first to shrink the total: starting at
the root, repeatedly descend into the child with the largest inclusive
simulated time, as long as that child dominates the parent's own self
time.  Every hop reports inclusive time, self time, and the share of the
root it accounts for, so the output reads as "the run is 12 ms; 8 ms of
it is vertex-extension; 6 ms of that is level 2; ...".

Alongside the path itself, :func:`hot_subtrees` ranks aggregated paths by
*self* time — the flat "where do the cycles actually burn" view that the
path's inclusive framing hides.

All functions take flat span records (see
:func:`repro.obs.exporters.span_tree_records`), so they work on live
collectors and on records read back from JSON alike.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from .spantree import SpanNode, build_tree

__all__ = [
    "critical_path",
    "hot_subtrees",
    "critical_path_report",
    "render_critical_path",
]


def _metric(node: SpanNode, metric: str) -> float:
    return node.sim_seconds if metric == "sim" else node.wall_seconds


def _metric_self(node: SpanNode, metric: str) -> float:
    return (node.sim_self_seconds if metric == "sim"
            else node.wall_self_seconds)


def critical_path(records: Sequence[Dict[str, Any]],
                  metric: str = "sim") -> List[Dict[str, Any]]:
    """The max-inclusive chain from the root, as one row per hop.

    Each row carries ``path``, ``name``, ``depth``, ``inclusive``,
    ``self``, and ``share`` (of the root's inclusive total).  Descent
    stops when a node has no children, or when the node's own self time
    exceeds every child — at that point the node itself is the bottleneck,
    not anything below it.
    """
    root = build_tree(records)
    if root is None:
        return []
    total = _metric(root, metric)
    rows: List[Dict[str, Any]] = []
    node = root
    while True:
        inclusive = _metric(node, metric)
        rows.append({
            "path": node.path,
            "name": node.name,
            "depth": node.depth,
            "inclusive": inclusive,
            "self": _metric_self(node, metric),
            "share": (inclusive / total) if total > 0 else 0.0,
        })
        if not node.children:
            break
        heaviest = max(node.children, key=lambda c: _metric(c, metric))
        if _metric(heaviest, metric) <= 0.0:
            break
        if _metric_self(node, metric) > _metric(heaviest, metric):
            break
        node = heaviest
    return rows


def hot_subtrees(records: Sequence[Dict[str, Any]], metric: str = "sim",
                 top: int = 10) -> List[Dict[str, Any]]:
    """Aggregated paths ranked by *self* time, largest first."""
    root = build_tree(records)
    if root is None:
        return []
    totals: Dict[str, Dict[str, float]] = {}
    for node in root.walk():
        entry = totals.setdefault(
            node.path, {"self": 0.0, "inclusive": 0.0, "count": 0})
        entry["self"] += _metric_self(node, metric)
        entry["inclusive"] += _metric(node, metric)
        entry["count"] += 1
    grand = math.fsum(entry["self"] for entry in totals.values())
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1]["self"], item[0]))
    return [
        {
            "path": path,
            "self": entry["self"],
            "inclusive": entry["inclusive"],
            "count": entry["count"],
            "share": (entry["self"] / grand) if grand > 0 else 0.0,
        }
        for path, entry in ranked[:top]
        if entry["self"] > 0.0
    ]


def critical_path_report(records: Sequence[Dict[str, Any]],
                         metric: str = "sim",
                         top: int = 10) -> Dict[str, Any]:
    """Machine-readable bundle: the path plus the hot-subtree ranking."""
    return {
        "schema": "gamma-critical-path/1",
        "metric": metric,
        "path": critical_path(records, metric),
        "hot_subtrees": hot_subtrees(records, metric, top=top),
    }


def render_critical_path(records: Sequence[Dict[str, Any]],
                         metric: str = "sim", top: int = 8) -> str:
    """Two-part ASCII report: the descent chain, then the self-time bars."""
    from ..exporters import render_bars

    label = "simulated" if metric == "sim" else "wall"
    rows = critical_path(records, metric)
    if not rows:
        return "(no spans recorded)"
    lines = [f"critical path ({label} time):"]
    for row in rows:
        indent = "  " * row["depth"]
        lines.append(
            f"  {indent}{row['name']:<{max(30 - 2 * row['depth'], 8)}} "
            f"{row['inclusive'] * 1e3:9.3f} ms  {row['share'] * 100:5.1f}%"
            f"  (self {row['self'] * 1e3:.3f} ms)"
        )
    hot = hot_subtrees(records, metric, top=top)
    if hot:
        lines.append("")
        lines.append(f"hot subtrees by self {label} time:")
        lines.append(render_bars(
            [(row["path"], row["self"], row["share"]) for row in hot]))
    return "\n".join(lines)
