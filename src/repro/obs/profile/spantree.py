"""Portable span trees: flat records in, navigable ``SpanNode`` trees out.

The collector in :mod:`repro.obs.spans` holds live :class:`Span` objects
tied to one process and one run.  The profiler layer reads span trees
that may have made a trip through JSON, so the unit of exchange here is
the *record*: one plain dict per span, produced by
:func:`repro.obs.exporters.span_tree_records`, with only JSON-stable
scalar/dict fields.

:func:`build_tree` reassembles records into :class:`SpanNode` objects,
each carrying its path: ``/``-joined span names from the root, e.g.
``run/phase:extension/level-2``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence

__all__ = ["SpanNode", "build_tree"]

#: Path separator between span names.
SEP = "/"


class SpanNode:
    """One span reassembled from a record, with child links and a path."""

    __slots__ = (
        "index", "parent", "name", "kind", "level", "depth", "path",
        "wall_seconds", "wall_self_seconds",
        "sim_seconds", "sim_self_seconds",
        "sim_buckets", "sim_self", "counters", "counters_self",
        "children",
    )

    def __init__(self, record: Dict[str, Any]) -> None:
        self.index = int(record.get("index", -1))
        self.parent = int(record.get("parent", -1))
        self.name = str(record.get("name", "?"))
        self.kind = record.get("kind")
        self.level = record.get("level")
        self.depth = int(record.get("depth", 0))
        self.path = self.name  # finalised by build_tree
        self.wall_seconds = float(record.get("wall_seconds", 0.0))
        self.wall_self_seconds = float(record.get("wall_self_seconds", 0.0))
        self.sim_seconds = float(record.get("sim_seconds", 0.0))
        self.sim_self_seconds = float(record.get("sim_self_seconds", 0.0))
        self.sim_buckets = dict(record.get("sim_buckets") or {})
        self.sim_self = dict(record.get("sim_self") or {})
        self.counters = dict(record.get("counters") or {})
        self.counters_self = dict(record.get("counters_self") or {})
        self.children: List["SpanNode"] = []

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanNode({self.path!r}, sim={self.sim_seconds:.3e}s, "
                f"children={len(self.children)})")


def _synthetic_root(roots: List[SpanNode]) -> SpanNode:
    """Wrap multiple top-level spans under one virtual root."""
    root = SpanNode({"index": -1, "parent": -1, "name": "(root)", "depth": 0})
    root.children = roots
    root.wall_seconds = math.fsum(r.wall_seconds for r in roots)
    root.sim_seconds = math.fsum(r.sim_seconds for r in roots)
    return root


def build_tree(records: Sequence[Dict[str, Any]]) -> "SpanNode | None":
    """Reassemble flat span records into one tree; ``None`` when empty.

    Records reference parents by ``index``; a record whose parent index is
    absent (or -1) is a root.  If several roots exist (a collector that was
    never bound opens no implicit ``run`` span) they are wrapped under a
    synthetic ``(root)`` node so callers always get a single tree.
    """
    if not records:
        return None
    nodes = [SpanNode(record) for record in records]
    by_index = {node.index: node for node in nodes}
    roots: List[SpanNode] = []
    for node in nodes:
        parent = by_index.get(node.parent)
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    root = roots[0] if len(roots) == 1 else _synthetic_root(roots)
    _assign_paths(root, root.name)
    return root


def _assign_paths(node: SpanNode, path: str) -> None:
    node.path = path
    for child in node.children:
        _assign_paths(child, f"{path}{SEP}{child.name}")

