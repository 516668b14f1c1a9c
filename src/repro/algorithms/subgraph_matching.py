"""Subgraph matching (paper §III-C1, Algorithm 1).

Two implementations, as the paper advertises ("SM can use both types of
extension"):

* :func:`match_pattern` — worst-case-optimal join via vertex extension:
  one query vertex per iteration, with adjacency/label/injectivity
  constraints pushed into the extension;
* :func:`match_pattern_binary` — binary join via edge extension: one query
  edge per iteration, filtering extended embeddings against the partial
  assignment.

Both count *embeddings* (automorphic images separately), matching the
embedding-table semantics; ``unique_subgraphs`` divides by the pattern's
automorphism count.

The drivers are engine-agnostic: any object implementing the Fig. 3
interface (GAMMA or a baseline) works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidPatternError
from ..graph.patterns import Pattern


@dataclass
class SMResult:
    """Outcome of one subgraph matching run."""

    pattern: str
    embeddings: int
    unique_subgraphs: int
    simulated_seconds: float
    peak_memory_bytes: int


def match_pattern(
    engine,
    pattern: Pattern,
    keep_table: bool = False,
    symmetry_breaking: bool = False,
    plan=None,
    level_hook=None,
):
    """WOJ subgraph matching (Algorithm 1).

    With ``symmetry_breaking=True``, the pattern's automorphism-derived
    ordering restrictions are pushed into the extensions, so each subgraph
    is enumerated exactly once (``embeddings == unique_subgraphs``) and the
    intermediate tables shrink by the automorphism factor.

    ``plan`` selects the matching order: ``None``/``"baseline"`` keeps the
    hand-tuned order (bit-identical to the pre-planner driver), ``"auto"``
    asks the query planner, and a :class:`~repro.plan.CompiledPlan` (or a
    plan-file path) is executed as-is.

    Returns :class:`SMResult`, or ``(SMResult, table)`` with
    ``keep_table=True``; without it the last level is only counted
    (``count_only``: billed alike, no rows stored).
    """
    from ..plan import resolve_plan

    plan = resolve_plan(engine, "sm", pattern=pattern, plan=plan,
                        symmetry_breaking=symmetry_breaking)
    symmetry_breaking = plan.symmetry_breaking
    order = list(plan.order)
    if sorted(order) != list(range(pattern.num_vertices)):
        raise InvalidPatternError(
            f"plan order {order} does not cover the pattern's "
            f"{pattern.num_vertices} vertices")
    position = {qv: step for step, qv in enumerate(order)}
    restrictions = (
        [tuple(r) for r in plan.restrictions] if symmetry_breaking else []
    )
    table = engine.new_vertex_table(f"SM:{pattern.name}")
    start = engine.simulated_seconds

    first_label = pattern.label(order[0]) if pattern.labeled else None
    engine.seed_vertices(table, label=first_label)
    if level_hook is not None:
        level_hook({"level": 1, "stage": "seed",
                    "embeddings": table.num_embeddings})

    for step in range(1, len(order)):
        qv = order[step]
        anchors = [position[w] for w in pattern.neighbors(qv) if position[w] < step]
        if not anchors:
            raise InvalidPatternError(
                f"matching order leaves {qv} disconnected at step {step}"
            )
        label = pattern.label(qv) if pattern.labeled else None
        # A restriction (a < b) applies at the step placing the later of
        # the two query vertices.
        greater_than_cols = [
            position[a] for a, b in restrictions
            if b == qv and position[a] < step
        ]
        less_than_cols = [
            position[b] for a, b in restrictions
            if a == qv and position[b] < step
        ]
        engine.vertex_extension(
            table, anchors, label=label,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols,
            count_only=not keep_table and step == len(order) - 1,
        )
        if level_hook is not None:
            level_hook({"level": step + 1, "stage": "extend",
                        "embeddings": table.num_embeddings})

    embeddings = table.num_embeddings
    autos = pattern.automorphism_count()
    result = SMResult(
        pattern=pattern.name,
        embeddings=embeddings,
        unique_subgraphs=embeddings if symmetry_breaking else embeddings // autos,
        simulated_seconds=engine.simulated_seconds - start,
        peak_memory_bytes=engine.peak_memory_bytes,
    )
    if keep_table:
        return result, table
    table.release()
    return result


def _level_offers(graph, table, level: int, assign: np.ndarray, eu: int):
    """Rows of a binary-join level: their parents' assignments, and the
    data vertex each row's new edge offers beyond the one assigned to
    query vertex ``eu`` (-1 where the edge misses it)."""
    a = assign[table.column_parents(level)]
    e_src, e_dst = graph.edge_endpoints(table.column_values(level))
    anchor = a[:, eu]
    return a, np.where(e_src == anchor, e_dst,
                       np.where(e_dst == anchor, e_src, -1))


def match_pattern_binary(engine, pattern: Pattern, plan=None) -> SMResult:
    """Binary-join subgraph matching via edge extension.

    The driver grows an e-ET one query edge at a time and keeps a
    host-side assignment matrix (query vertex -> data vertex per row) to
    filter each extension against the query structure.  The plan pins the
    e-ET orientation: the seed's per-edge forward/backward capability masks
    are the source of truth for row orientation, rather than re-deriving an
    alignment permutation after the engine partitions the seed.
    """
    from ..plan import resolve_plan

    plan = resolve_plan(engine, "sm-binary", pattern=pattern, plan=plan)
    edge_order = [tuple(e) for e in plan.edge_order]
    start = engine.simulated_seconds

    graph = engine.graph
    # Seed: all data edges whose endpoint labels match the first query edge
    # (in either orientation).  assign[r, qv] = matched data vertex or -1.
    qu, qv = edge_order[0]
    src, dst = graph.edge_src, graph.edge_dst
    k = pattern.num_vertices
    n0 = graph.num_edges

    if pattern.labeled:
        fwd = (graph.labels[src] == pattern.label(qu)) & (
            graph.labels[dst] == pattern.label(qv)
        )
        bwd = (graph.labels[src] == pattern.label(qv)) & (
            graph.labels[dst] == pattern.label(qu)
        )
    else:
        fwd = np.ones(n0, dtype=bool)
        bwd = np.ones(n0, dtype=bool)
    # An edge matching both ways yields two embeddings: the explicit seed
    # holds forward copies first, then backward ones.
    rows = np.concatenate([np.flatnonzero(fwd), np.flatnonzero(bwd)])
    table = engine.new_edge_table(f"SM-bj:{pattern.name}")
    edge_ids = np.arange(graph.num_edges, dtype=np.int64)[rows]
    table.seed(edge_ids)
    # Sharded engines partition the seed by unit ownership, reordering rows
    # (stably) into shard-major order.  Orientation is recovered from the
    # plan's seed-edge capability masks instead of re-deriving an alignment
    # permutation: a stable partition keeps both copies of a dual-orientation
    # edge adjacent in relative order, so the first occurrence of an edge id
    # is the forward copy whenever the edge *can* match forward, and any
    # second occurrence is the backward copy.
    rows = table.column_values(0)
    order_idx = np.argsort(rows, kind="stable")
    sorted_rows = rows[order_idx]
    occ_sorted = np.zeros(len(rows), dtype=np.int64)
    occ_sorted[1:] = sorted_rows[1:] == sorted_rows[:-1]
    occ = np.empty(len(rows), dtype=np.int64)
    occ[order_idx] = occ_sorted
    orient_fwd = (occ == 0) & fwd[rows]
    assign = np.full((len(rows), k), -1, dtype=np.int64)
    assign[orient_fwd, qu] = src[rows[orient_fwd]]
    assign[orient_fwd, qv] = dst[rows[orient_fwd]]
    assign[~orient_fwd, qu] = dst[rows[~orient_fwd]]
    assign[~orient_fwd, qv] = src[rows[~orient_fwd]]

    matched = {qu, qv}
    for t in range(1, len(edge_order)):
        eu, ev = edge_order[t]
        # Orient so eu is already matched.
        if eu not in matched and ev in matched:
            eu, ev = ev, eu
        if eu not in matched:
            raise InvalidPatternError("edge order must stay connected")
        ev_matched = ev in matched

        engine.edge_extension(table)
        a, other = _level_offers(graph, table, t, assign, eu)
        ok = other >= 0
        if ev_matched:
            ok &= other == a[:, ev]
        else:
            if pattern.labeled:
                ok &= (
                    graph.labels[np.maximum(other, 0)] == pattern.label(ev)
                )
            # Injectivity: the new vertex must not already be assigned.
            ok &= ~(a == other[:, None]).any(axis=1)
        engine.filtering(table, keep_mask=ok)

        # The survivors' assignments, read back from the filtered level
        # (a resumed replay restores that level, not the one above).
        assign, other = _level_offers(graph, table, t, assign, eu)
        if not ev_matched:
            assign[:, ev] = other
        matched.add(ev)

    embeddings = table.num_embeddings
    autos = pattern.automorphism_count()
    result = SMResult(
        pattern=pattern.name + "+binary-join",
        embeddings=embeddings,
        unique_subgraphs=embeddings // autos if autos else embeddings,
        simulated_seconds=engine.simulated_seconds - start,
        peak_memory_bytes=engine.peak_memory_bytes,
    )
    table.release()
    return result
