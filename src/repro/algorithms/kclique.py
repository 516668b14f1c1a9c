"""k-clique listing (kCL) on the GAMMA primitives.

Cliques are enumerated in ascending vertex order (each new vertex must be
adjacent to *all* matched vertices and larger than the last), so every
k-clique appears exactly once — the standard canonicality constraint that
makes kCL the lightest-pruned, heaviest-intermediate-result workload of the
paper's evaluation (its Fig. 10 memory ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidPatternError


@dataclass
class KCliqueResult:
    """Outcome of one kCL run."""

    k: int
    cliques: int
    simulated_seconds: float
    peak_memory_bytes: int


def count_kcliques(engine, k: int, keep_table: bool = False, plan=None,
                   level_hook=None):
    """List/count all k-cliques.

    Returns :class:`KCliqueResult`, or ``(result, table)`` with
    ``keep_table=True`` (the table rows are the cliques, ascending order);
    without it the last level is only counted (``count_only``).

    Every matching order of a complete pattern is isomorphic, so the plan
    only validates/records provenance here; ascending-id growth is already
    canonical.

    ``level_hook``, when given, is called after each completed level with a
    summary dict; it may raise (e.g. :class:`~repro.errors.QueryPreempted`)
    to suspend between levels without losing journaled work.
    """
    if k < 1:
        raise InvalidPatternError("k must be >= 1")
    from ..plan import resolve_plan

    resolve_plan(engine, "kclique", plan=plan, k=k)
    start = engine.simulated_seconds
    table = engine.new_vertex_table(f"kCL:{k}")
    engine.seed_vertices(table)
    if level_hook is not None:
        level_hook({"level": 1, "stage": "seed",
                    "embeddings": table.num_embeddings})
    for depth in range(1, k):
        # New vertex adjacent to every matched vertex, id-ordered.
        engine.vertex_extension(
            table,
            anchor_cols=list(range(depth)),
            greater_than_col=depth - 1,
            injective=False,  # the ordering constraint already implies it
            count_only=not keep_table and depth == k - 1,
        )
        if level_hook is not None:
            level_hook({"level": depth + 1, "stage": "extend",
                        "embeddings": table.num_embeddings})
    result = KCliqueResult(
        k=k,
        cliques=table.num_embeddings,
        simulated_seconds=engine.simulated_seconds - start,
        peak_memory_bytes=engine.peak_memory_bytes,
    )
    if keep_table:
        return result, table
    table.release()
    return result
