"""Plan execution: dispatch a CompiledPlan to the algorithm drivers.

``execute_plan(engine, plan)`` is what :meth:`CompiledPlan.run` calls, so
``engine.run(plan)`` works on :class:`~repro.core.framework.Gamma` at any
partition count — the plan *is* the task.  Imports
are deferred to keep ``repro.plan`` importable without pulling the whole
algorithm stack (the algorithms import ``repro.plan`` themselves).
"""

from __future__ import annotations

from typing import Any

from .plan import CompiledPlan

__all__ = ["execute_plan"]


def execute_plan(engine: Any, plan: CompiledPlan) -> Any:
    """Run ``plan`` on ``engine``; returns the driver's result object."""
    if plan.task == "sm":
        from ..algorithms.subgraph_matching import match_pattern
        return match_pattern(
            engine, plan.build_pattern(),
            symmetry_breaking=plan.symmetry_breaking, plan=plan)
    if plan.task == "sm-binary":
        from ..algorithms.subgraph_matching import match_pattern_binary
        return match_pattern_binary(engine, plan.build_pattern(), plan=plan)
    if plan.task == "fpm":
        from ..algorithms.fpm import frequent_pattern_mining
        return frequent_pattern_mining(
            engine,
            iterations=int(plan.params["iterations"]),
            min_support=int(plan.params["min_support"]),
            support_metric=plan.params.get("support_metric", "instances"),
            plan=plan)
    if plan.task == "motif":
        from ..algorithms.motif import motif_count
        return motif_count(
            engine, num_edges=int(plan.params["num_edges"]), plan=plan)
    if plan.task == "kclique":
        from ..algorithms.kclique import count_kcliques
        return count_kcliques(engine, k=int(plan.params["k"]), plan=plan)
    raise ValueError(f"unknown plan task {plan.task!r}")
