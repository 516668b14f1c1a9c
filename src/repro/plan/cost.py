"""Planner cost model: price candidate plans against a dataset profile.

This is a *ranking* model, not a clock: it reuses the gpusim rates
(:class:`~repro.gpusim.CostModel`) to convert estimated work — extension
candidate counts, embedding-table page traffic, sort volume — into
predicted seconds, so that candidate matching orders can be compared on
the same scale the simulator charges.  Absolute predictions are rough;
what matters is that the *ordering* of candidates tracks the ordering of
their simulated costs, which ``tests/plan/test_never_worse.py`` checks
end to end.

Cardinality estimation follows the classic independence model:

* a seed step keeps ``V x label_frequency(label)`` rows;
* an extension step scans ``rows_in x deg(source anchor)`` candidates,
  where the source anchor is the placed neighbor with the smallest
  label-conditioned mean degree (mirroring ``_vertex_read_plan``'s
  cheapest-anchor choice in the engine);
* each *additional* anchor survives with probability ``edge_probability``
  (adjacency treated as independent), a label filter survives with the
  label's frequency, and each ordering restriction (symmetry breaking or
  ascending-id growth) halves the survivors.

Edge-oriented growth (FPM / motif) is costed per level with explicit
sort volume for the dedup pass, which is how the planner discovers that
the ordered-growth strategy (no dedup needed at the pair level) wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..gpusim import DEFAULT_COST, DEFAULT_SPEC, CostModel, DeviceSpec
from .profile import DatasetProfile

__all__ = ["PlanCostModel", "PlanEstimate", "StepEstimate"]

#: Bytes per embedding-table cell (int32 columns in the simulator tables).
_CELL_BYTES = 8

#: Quick-pattern encode cost per (row, edge) pair, mirroring
#: repro.core.aggregation._QUICK_OPS_PER_EDGE.
_AGG_OPS_PER_EDGE = 24


@dataclass(frozen=True)
class StepEstimate:
    """Predicted cost of one plan step."""

    kind: str                # seed | extend | dedup | aggregate | filter
    detail: str              # human-readable annotation ("place q3 from q1")
    rows_in: float
    candidates: float        # scanned extension candidates (0 for non-extend)
    rows_out: float
    ops: float               # device element-ops charged
    traffic_bytes: float     # PCIe page traffic (reads + writes)
    sort_bytes: float        # sort volume (dedup / aggregation sorts)
    seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "detail": self.detail,
            "rows_in": round(self.rows_in, 1),
            "candidates": round(self.candidates, 1),
            "rows_out": round(self.rows_out, 1),
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted cost of a whole candidate plan."""

    seconds: float
    steps: Tuple[StepEstimate, ...] = field(default=())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seconds": self.seconds,
            "steps": [s.as_dict() for s in self.steps],
        }


class PlanCostModel:
    """Prices candidate orders/strategies against one dataset profile."""

    def __init__(self, profile: DatasetProfile,
                 cost: CostModel = DEFAULT_COST,
                 spec: DeviceSpec = DEFAULT_SPEC) -> None:
        self.profile = profile
        self.cost = cost
        self.spec = spec
        self._gpu_ops = cost.gpu_ops_per_second(spec)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _search_steps(self) -> float:
        """Binary-search depth for one adjacency probe."""
        return math.log2(max(2, self.profile.max_degree))

    def _seconds(self, ops: float, traffic_bytes: float,
                 sort_bytes: float, launches: int = 1) -> float:
        return (launches * self.cost.kernel_launch_overhead
                + ops / self._gpu_ops
                + (traffic_bytes + sort_bytes) / self.cost.pcie_bandwidth)

    # ------------------------------------------------------------------
    # Vertex-oriented matching (subgraph matching, cliques)
    # ------------------------------------------------------------------

    def estimate_match_order(
        self, pattern: Any, order: Sequence[int],
        restrictions: Sequence[Tuple[int, int]] = (),
        symmetry_breaking: bool = False,
    ) -> PlanEstimate:
        """Predict the cost of matching ``pattern`` along ``order``.

        ``restrictions`` are (a, b) pairs meaning *match(a) < match(b)*;
        they only prune when ``symmetry_breaking`` is on, mirroring the
        engine's behavior.
        """
        prof = self.profile
        position = {qv: i for i, qv in enumerate(order)}
        p_adj = prof.edge_probability()
        steps: List[StepEstimate] = []

        first = order[0]
        first_label = pattern.label(first) if pattern.labeled else None
        rows = prof.num_vertices * prof.label_frequency(first_label)
        steps.append(StepEstimate(
            kind="seed", detail=f"seed q{first}",
            rows_in=prof.num_vertices, candidates=0.0, rows_out=rows,
            ops=prof.num_vertices,
            traffic_bytes=rows * _CELL_BYTES, sort_bytes=0.0,
            seconds=self._seconds(prof.num_vertices, rows * _CELL_BYTES, 0.0),
        ))

        for step in range(1, len(order)):
            qv = order[step]
            anchors = [position[a] for a in pattern.neighbors(qv)
                       if position.get(a, len(order)) < step]
            anchor_labels = [
                pattern.label(order[a]) if pattern.labeled else None
                for a in anchors
            ]
            # Engine picks the cheapest source list; mirror that choice.
            src_deg = min(
                (prof.label_mean_degree(lab) for lab in anchor_labels),
                default=prof.mean_degree,
            )
            candidates = rows * src_deg
            survival = p_adj ** max(0, len(anchors) - 1)
            label = pattern.label(qv) if pattern.labeled else None
            survival *= prof.label_frequency(label)
            n_restrict = 0
            if symmetry_breaking:
                n_restrict = sum(
                    1 for a, b in restrictions
                    if (b == qv and position[a] < step)
                    or (a == qv and position[b] < step)
                )
            survival *= 0.5 ** n_restrict
            rows_out = candidates * survival

            verify_ops = (candidates * self._search_steps()
                          * self.cost.search_step_ops
                          * max(1, len(anchors)))
            traffic = (rows * step * _CELL_BYTES
                       + rows_out * (step + 1) * _CELL_BYTES)
            steps.append(StepEstimate(
                kind="extend",
                detail=(f"place q{qv} from q{order[anchors[0]]}"
                        if anchors else f"place q{qv} (unanchored)"),
                rows_in=rows, candidates=candidates, rows_out=rows_out,
                ops=verify_ops, traffic_bytes=traffic, sort_bytes=0.0,
                seconds=self._seconds(verify_ops, traffic, 0.0),
            ))
            rows = rows_out

        return PlanEstimate(
            seconds=sum(s.seconds for s in steps), steps=tuple(steps),
        )

    # ------------------------------------------------------------------
    # Edge-oriented growth (FPM, motif counting)
    # ------------------------------------------------------------------

    def estimate_edge_plan(
        self, iterations: int,
        strategies: Optional[Sequence[Dict[str, Any]]] = None,
        aggregate: bool = True,
    ) -> PlanEstimate:
        """Predict FPM/motif cost for per-level growth ``strategies``.

        ``strategies[level-1]`` applies when growing *to* ``level + 1``
        edges: ``{"ordered": bool, "dedup": bool}``.  Ordered growth only
        admits extension edges with larger ids, so each edge *pair* is
        generated once and needs no dedup; at deeper levels ascending
        growth misses bridge-closing edges, so dedup stays mandatory.
        """
        prof = self.profile
        steps: List[StepEstimate] = []
        rows = float(prof.num_edges)
        # Mean number of incident edges around one embedding's vertex set.
        incident = 2.0 * prof.mean_degree

        steps.append(StepEstimate(
            kind="seed", detail="seed edges",
            rows_in=float(prof.num_edges), candidates=0.0, rows_out=rows,
            ops=rows, traffic_bytes=rows * _CELL_BYTES, sort_bytes=0.0,
            seconds=self._seconds(rows, rows * _CELL_BYTES, 0.0),
        ))

        for level in range(1, iterations + 1):
            width = level
            if aggregate:
                agg_ops = rows * width * _AGG_OPS_PER_EDGE
                agg_sort = rows * _CELL_BYTES * max(1.0, math.log2(max(2, rows)) / 8)
                traffic = rows * width * _CELL_BYTES
                steps.append(StepEstimate(
                    kind="aggregate", detail=f"level {level} quick-pattern",
                    rows_in=rows, candidates=0.0, rows_out=rows,
                    ops=agg_ops, traffic_bytes=traffic, sort_bytes=agg_sort,
                    seconds=self._seconds(agg_ops, traffic, agg_sort),
                ))
            if level >= iterations:
                break
            strategy = {}
            if strategies is not None and level - 1 < len(strategies):
                strategy = dict(strategies[level - 1])
            ordered = bool(strategy.get("ordered", False))
            dedup = bool(strategy.get("dedup", not ordered))

            candidates = rows * incident * width
            # Ordered growth keeps ascending continuations only (~half).
            grown = candidates * (0.5 if ordered else 1.0)
            ext_ops = candidates * self.cost.search_step_ops
            traffic = (rows * width * _CELL_BYTES
                       + grown * (width + 1) * _CELL_BYTES)
            steps.append(StepEstimate(
                kind="extend",
                detail=(f"grow to {level + 1} edges"
                        + (" (ordered)" if ordered else "")),
                rows_in=rows, candidates=candidates, rows_out=grown,
                ops=ext_ops, traffic_bytes=traffic, sort_bytes=0.0,
                seconds=self._seconds(ext_ops, traffic, 0.0),
            ))
            rows = grown

            if dedup:
                # Each (width+1)-edge set appears once per constituent edge
                # under unordered growth; dedup keeps one representative.
                survivors = rows / (width + 1)
                sort_bytes = rows * (width + 1) * _CELL_BYTES * 2
                sort_ops = rows * math.log2(max(2, rows))
                steps.append(StepEstimate(
                    kind="dedup", detail=f"dedup {level + 1}-edge sets",
                    rows_in=rows, candidates=0.0, rows_out=survivors,
                    ops=sort_ops, traffic_bytes=sort_bytes,
                    sort_bytes=sort_bytes,
                    seconds=self._seconds(sort_ops, sort_bytes, sort_bytes),
                ))
                rows = survivors

        return PlanEstimate(
            seconds=sum(s.seconds for s in steps), steps=tuple(steps),
        )
