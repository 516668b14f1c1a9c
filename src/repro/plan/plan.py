"""CompiledPlan: the executable artifact the planner emits.

A plan is plain data — task kind, matching order, restriction sets,
orientation, join strategy, per-level growth strategies, access-mode
recommendation — plus provenance (pattern hash, profile hash, planner
version, predicted cost).  It serializes to stable JSON (``save`` /
``load``), hashes to a short ``plan_id``, and executes directly:
``engine.run(plan)`` works because :meth:`CompiledPlan.run` dispatches to
the algorithm drivers with the plan's choices, the same way the old
hardcoded drivers ran.

``source`` records where the choices came from:

* ``baseline`` — the pre-planner hand-tuned orders, bit-identical;
* ``auto`` — the cost model picked the cheapest candidate;
* ``hint`` — the costing could not beat the hand-tuned hint, so the plan
  *is* the hint (still validated like any candidate);
* ``file`` — loaded from a user-supplied plan JSON.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["PLAN_SCHEMA", "PLANNER_VERSION", "CompiledPlan", "pattern_hash"]

PLAN_SCHEMA = "gamma-plan/1"

#: Bump when costing/enumeration changes invalidate cached plans.
PLANNER_VERSION = 1

#: Orientation of the embedding table the plan drives.
V_ET = "v-ET"
E_ET = "e-ET"

TASKS = ("sm", "sm-binary", "fpm", "motif", "kclique")
SOURCES = ("auto", "baseline", "hint", "file")


def pattern_hash(pattern: Any) -> str:
    """Stable sha256 of a pattern's structure (edges + labels)."""
    payload = {
        "edges": [[int(u), int(v)] for u, v in pattern.edges],
        "labels": ([int(pattern.label(v))
                    for v in range(pattern.num_vertices)]
                   if pattern.labeled else None),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def task_signature(task: str, params: Dict[str, Any],
                   pattern: Any = None) -> str:
    """Cache-key component standing in for the pattern on pattern-less
    tasks (FPM / motif / k-clique are parameterized, not pattern-shaped)."""
    if pattern is not None:
        return pattern_hash(pattern)
    stable = {k: params[k] for k in sorted(params)
              if not isinstance(params[k], (list, dict))}
    blob = json.dumps({"task": task, "params": stable},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompiledPlan:
    """One compiled execution plan; immutable, serializable, executable."""

    task: str                       # sm | sm-binary | fpm | motif | kclique
    source: str = "auto"
    orientation: str = V_ET
    join_strategy: str = "extend"   # extend | binary
    #: Pattern structure for SM tasks ({"edges", "labels", "name"}).
    pattern: Optional[Dict[str, Any]] = None
    #: Vertex matching order (SM / kclique) — query-vertex ids.
    order: Tuple[int, ...] = field(default=())
    #: Edge placement order (binary join) — pattern edges in growth order.
    edge_order: Tuple[Tuple[int, int], ...] = field(default=())
    #: Symmetry-breaking restrictions: (a, b) means match(a) < match(b).
    restrictions: Tuple[Tuple[int, int], ...] = field(default=())
    symmetry_breaking: bool = False
    #: Task parameters (k, iterations, min_support, metric, num_edges, …).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Per-level growth strategies for edge-oriented tasks
    #: ([{"ordered": bool, "dedup": bool}, …], one per extension level).
    level_strategies: Tuple[Dict[str, Any], ...] = field(default=())
    #: Recommended residence access mode ("hybrid" is the engine default).
    access_mode: str = "hybrid"
    pattern_hash: str = ""
    profile_hash: str = ""
    planner_version: int = PLANNER_VERSION
    predicted_seconds: float = 0.0
    baseline_predicted_seconds: float = 0.0
    candidates_considered: int = 1
    schema: str = PLAN_SCHEMA

    # ------------------------------------------------------------------
    # Identity / serialization
    # ------------------------------------------------------------------

    def _identity_dict(self) -> Dict[str, Any]:
        """The fields that define *what executes* (not provenance)."""
        return {
            "schema": self.schema,
            "task": self.task,
            "orientation": self.orientation,
            "join_strategy": self.join_strategy,
            "pattern": self.pattern,
            "order": list(self.order),
            "edge_order": [list(e) for e in self.edge_order],
            "restrictions": [list(r) for r in self.restrictions],
            "symmetry_breaking": self.symmetry_breaking,
            "params": self.params,
            "level_strategies": [dict(s) for s in self.level_strategies],
            "access_mode": self.access_mode,
        }

    @property
    def plan_id(self) -> str:
        """Short content hash over the executable fields."""
        blob = json.dumps(self._identity_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> Dict[str, Any]:
        doc = self._identity_dict()
        doc.update({
            "source": self.source,
            "pattern_hash": self.pattern_hash,
            "profile_hash": self.profile_hash,
            "planner_version": self.planner_version,
            "predicted_seconds": self.predicted_seconds,
            "baseline_predicted_seconds": self.baseline_predicted_seconds,
            "candidates_considered": self.candidates_considered,
            "plan_id": self.plan_id,
        })
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "CompiledPlan":
        if doc.get("schema") != PLAN_SCHEMA:
            raise ValueError(
                f"unsupported plan schema {doc.get('schema')!r}; "
                f"expected {PLAN_SCHEMA}")
        return cls(
            task=doc["task"],
            source=doc.get("source", "file"),
            orientation=doc.get("orientation", V_ET),
            join_strategy=doc.get("join_strategy", "extend"),
            pattern=doc.get("pattern"),
            order=tuple(int(v) for v in doc.get("order", ())),
            edge_order=tuple(
                (int(u), int(v)) for u, v in doc.get("edge_order", ())
            ),
            restrictions=tuple(
                (int(a), int(b)) for a, b in doc.get("restrictions", ())
            ),
            symmetry_breaking=bool(doc.get("symmetry_breaking", False)),
            params=dict(doc.get("params", {})),
            level_strategies=tuple(
                dict(s) for s in doc.get("level_strategies", ())
            ),
            access_mode=doc.get("access_mode", "hybrid"),
            pattern_hash=doc.get("pattern_hash", ""),
            profile_hash=doc.get("profile_hash", ""),
            planner_version=int(doc.get("planner_version", PLANNER_VERSION)),
            predicted_seconds=float(doc.get("predicted_seconds", 0.0)),
            baseline_predicted_seconds=float(
                doc.get("baseline_predicted_seconds", 0.0)),
            candidates_considered=int(doc.get("candidates_considered", 1)),
        )

    def save(self, path: "str | pathlib.Path") -> pathlib.Path:
        target = pathlib.Path(path)
        target.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return target

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "CompiledPlan":
        doc = json.loads(pathlib.Path(path).read_text())
        plan = cls.from_json(doc)
        return replace(plan, source="file")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable rendering (``repro plan explain``)."""
        lines = [
            f"plan {self.plan_id} [{self.source}] "
            f"task={self.task} orientation={self.orientation} "
            f"join={self.join_strategy} access={self.access_mode}",
            f"  planner_version={self.planner_version} "
            f"candidates_considered={self.candidates_considered}",
        ]
        if self.pattern:
            name = self.pattern.get("name") or "<anon>"
            lines.append(
                f"  pattern {name}: edges={self.pattern.get('edges')} "
                f"labels={self.pattern.get('labels')}")
        if self.order:
            lines.append(f"  order: {list(self.order)}")
        if self.edge_order:
            lines.append(f"  edge order: {[list(e) for e in self.edge_order]}")
        if self.restrictions:
            rendered = ", ".join(f"q{a}<q{b}" for a, b in self.restrictions)
            lines.append(
                f"  restrictions ({'on' if self.symmetry_breaking else 'off'})"
                f": {rendered}")
        if self.level_strategies:
            per = [("ordered" if s.get("ordered") else "plain")
                   + ("+dedup" if s.get("dedup") else "")
                   for s in self.level_strategies]
            lines.append(f"  level strategies: {per}")
        if self.params:
            rendered = ", ".join(
                f"{k}={self.params[k]}" for k in sorted(self.params))
            lines.append(f"  params: {rendered}")
        if self.predicted_seconds:
            lines.append(
                f"  predicted {self.predicted_seconds:.6f}s"
                + (f" (baseline order {self.baseline_predicted_seconds:.6f}s)"
                   if self.baseline_predicted_seconds else ""))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def build_pattern(self) -> Any:
        """Reconstruct the Pattern object for SM plans."""
        if self.pattern is None:
            raise ValueError(f"plan for task {self.task!r} has no pattern")
        from ..graph.patterns import Pattern
        return Pattern(
            [(int(u), int(v)) for u, v in self.pattern["edges"]],
            labels=self.pattern.get("labels"),
            name=self.pattern.get("name"),
        )

    def run(self, engine: Any) -> Any:
        """Execute this plan on ``engine`` (any partition count).

        Plans are tasks: ``engine.run(plan)`` calls this through the
        ``task.run`` protocol, so plan-driven and callable-driven runs
        share the journaling/telemetry path.
        """
        from .execute import execute_plan
        return execute_plan(engine, self)
