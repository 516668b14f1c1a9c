"""Paper-literal user interface (Fig. 3).

The paper presents GAMMA to users as five free-standing interfaces over
shared data structures::

    Vertex_Extension(embedding_table ET, graph_data G_d);
    Edge_Extension(embedding_table ET, graph_data G_d);
    Aggregation(embedding_table ET, map_function m_f);
    Filtering(embedding_table ET, pattern_table PT = NULL, constraint c);
    output_results(embedding_table ET = NULL, pattern_table PT = NULL);

:class:`repro.core.Gamma` exposes the same operations as methods; this
module provides the literal free-function spelling for code that wants to
read exactly like the paper's Algorithms 1 and 2 (see
``tests/core/test_primitives.py`` for both algorithms transcribed
line-by-line).  Tables remember the engine that created them, so the
functions need no explicit engine argument — ``G_d`` is carried by the
engine, as in the paper's framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ExecutionError
from ..graph.patterns import Pattern
from .embedding_table import EmbeddingTable
from .filtering import MinSupport
from .pattern_table import PatternTable


@dataclass(frozen=True)
class Constraint:
    """The paper's ``constraint`` data structure: either a query graph's
    structure (SM) or a minimum support (FPM)."""

    query_graph: Optional[Pattern] = None
    min_support: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.query_graph is None) == (self.min_support is None):
            raise ExecutionError(
                "a constraint is either a query graph or a support threshold"
            )


def _engine_of(table: EmbeddingTable):
    engine = getattr(table, "owner", None)
    if engine is None:
        raise ExecutionError(
            "this table was not created by an engine; use Gamma.new_*_table"
        )
    return engine


def vertex_extension(
    table: EmbeddingTable,
    anchor_cols,
    label: int | None = None,
    greater_than_col: int | None = None,
) -> EmbeddingTable:
    """``Vertex_Extension(ET, G_d)``: extend each embedding by one vertex."""
    _engine_of(table).vertex_extension(
        table, anchor_cols, label=label, greater_than_col=greater_than_col
    )
    return table


def edge_extension(table: EmbeddingTable) -> EmbeddingTable:
    """``Edge_Extension(ET, G_d)``: extend each embedding by one edge."""
    _engine_of(table).edge_extension(table)
    return table


def aggregation(
    table: EmbeddingTable,
    pattern_table: PatternTable,
    map_function: str = "canonical",
) -> None:
    """``PT <- Aggregation(ET, m_f)``: count embeddings by pattern.

    Each embedding is mapped to its pattern and counted into
    ``pattern_table``, the output; the level keeps its codes for
    :func:`filtering`.

    ``map_function`` names the supported canonical maps: ``"canonical"``
    (instance-frequency support) or ``"canonical-mni"``.
    """
    metric = {"canonical": "instances", "canonical-mni": "mni"}.get(map_function)
    if metric is None:
        raise ExecutionError(
            "map_function must be 'canonical' or 'canonical-mni'"
        )
    _engine_of(table).aggregation(table, pattern_table, support_metric=metric)


def filtering(
    table: EmbeddingTable,
    pattern_table: PatternTable | None = None,
    constraint: Constraint | None = None,
    keep_mask: np.ndarray | None = None,
) -> int:
    """``Filtering(ET, PT, constraint)``: drop embeddings/patterns that
    violate the constraint (a support constraint reads the patterns of the
    level the last :func:`aggregation` counted).  Returns rows removed."""
    engine = _engine_of(table)
    if keep_mask is not None:
        return engine.filtering(table, keep_mask=keep_mask)
    if constraint is None:
        raise ExecutionError("filtering needs a constraint or a mask")
    if constraint.min_support is not None:
        return engine.filtering(
            table,
            pattern_table=pattern_table,
            constraint=MinSupport(constraint.min_support),
        )
    # Query-graph constraint: verify every pattern edge on the full rows.
    pattern = constraint.query_graph
    mats = table.materialize()
    if mats.shape[1] < pattern.num_vertices:
        raise ExecutionError(
            "query-graph filtering needs fully matched embeddings"
        )
    graph = engine.graph
    order = pattern.matching_order()  # verification, not planning: any fixed vertex enumeration works, rows are already fully matched
    mask = np.ones(len(mats), dtype=bool)
    position = {qv: i for i, qv in enumerate(order)}
    for u, v in pattern.edges:
        mask &= graph.has_edges(
            mats[:, position[u]], mats[:, position[v]]
        )
    if pattern.labeled:
        for qv in range(pattern.num_vertices):
            mask &= (
                graph.labels[mats[:, position[qv]]] == pattern.label(qv)
            )
    return engine.filtering(table, keep_mask=mask)


def output_results(
    table: EmbeddingTable | None = None,
    pattern_table: PatternTable | None = None,
):
    """``output_results(ET, PT)``."""
    if table is not None:
        return _engine_of(table).output_results(
            table=table, pattern_table=pattern_table
        )
    if pattern_table is not None:
        return pattern_table.as_dict()
    raise ExecutionError("nothing to output")
