"""Frequent pattern mining (paper §III-C2, Algorithm 2).

FPM grows an edge-oriented embedding table level by level.  Each iteration
aggregates embeddings into the pattern table by canonical label, prunes
patterns below the support threshold together with their instances, and —
if another iteration follows — extends every surviving embedding by one
adjacent edge.  Support is instance frequency (the paper's §III definition),
so duplicate discoveries of the same edge set are removed before counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.filtering import MinSupport
from ..core.pattern_table import PatternTable
from ..errors import ExecutionError


@dataclass
class FPMResult:
    """Outcome of one FPM run."""

    iterations: int
    min_support: int
    #: Frequent patterns of the final level (canonical code -> support).
    patterns: dict
    #: Number of frequent patterns discovered per level (1-indexed).
    frequent_per_level: list[int] = field(default_factory=list)
    simulated_seconds: float = 0.0
    peak_memory_bytes: int = 0


def frequent_pattern_mining(
    engine, iterations: int, min_support: int,
    support_metric: str = "instances", plan=None, level_hook=None,
) -> FPMResult:
    """Algorithm 2: mine all patterns of up to ``iterations`` edges with
    support at least ``min_support``.

    ``support_metric`` selects the paper's instance-frequency support or
    minimum-image-based (MNI) support; MNI is anti-monotone, so with it the
    support filter is a safe prune rather than a heuristic one.

    ``plan`` selects per-level growth strategies: the baseline grows
    unordered and dedups (the pre-planner behavior), while the planner's
    ordered strategy at the pair level generates each 2-edge set exactly
    once (only ids above the seed edge extend) and skips the dedup pass —
    identical pattern counts, one sort pass cheaper."""
    if iterations < 1:
        raise ExecutionError("FPM needs at least one iteration")
    from ..plan import resolve_plan

    plan = resolve_plan(engine, "fpm", plan=plan, iterations=iterations,
                        min_support=min_support,
                        support_metric=support_metric)
    constraint = MinSupport(min_support)
    start = engine.simulated_seconds

    table = engine.new_edge_table("FPM")
    engine.seed_edges(table)
    if level_hook is not None:
        level_hook({"level": 0, "stage": "seed",
                    "embeddings": table.num_embeddings})
    pattern_table = PatternTable()
    frequent_per_level: list[int] = []

    for level in range(1, iterations + 1):
        rows_before_filter = table.num_embeddings
        engine.aggregation(table, pattern_table, support_metric=support_metric)
        engine.filtering(table, pattern_table=pattern_table,
                         constraint=constraint)
        frequent_per_level.append(len(pattern_table))
        if level_hook is not None:
            level_hook({"level": level, "stage": "filter",
                        "frequent": len(pattern_table),
                        "patterns": {str(code): support
                                     for code, support
                                     in sorted(pattern_table.as_dict().items())}})
        if level < iterations:
            strategy = (dict(plan.level_strategies[level - 1])
                        if level - 1 < len(plan.level_strategies)
                        else {"ordered": False, "dedup": True})
            # Ordered growth is only sound when the support filter dropped
            # nothing: a pair {a, b} with a < b whose smaller edge was
            # pruned must still be generated from the surviving row b, and
            # the ascending restriction would forbid that.  (Deeper levels
            # are never ordered: ascending growth also misses sets whose
            # bridge edge has the largest id.)
            ordered_ok = (level == 1
                          and table.num_embeddings == rows_before_filter)
            if strategy.get("ordered") and ordered_ok:
                # Ordered growth: every level-1 row holds one edge, so
                # restricting candidates to larger ids yields each pair
                # exactly once — no dedup needed.
                engine.edge_extension(table, greater_than_col=0)
            else:
                engine.edge_extension(table)
                # Same edge set, multiple growth orders -> one instance.
                engine.dedup(table)

    result = FPMResult(
        iterations=iterations,
        min_support=min_support,
        patterns=pattern_table.as_dict(),
        frequent_per_level=frequent_per_level,
        simulated_seconds=engine.simulated_seconds - start,
        peak_memory_bytes=engine.peak_memory_bytes,
    )
    table.release()
    return result
