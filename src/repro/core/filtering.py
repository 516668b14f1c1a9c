"""The filtering primitive (paper §III-B3).

Filtering enforces user constraints on the embedding table after extension
or aggregation: structural constraints of a query graph (SM), a minimum
support over the pattern table (FPM), or any user predicate.  Invalid rows
are removed by the table's three-stage compaction (§V-A) — the space
saving the paper notes other frameworks skip.  The support filter reads
the codes its level's aggregation left on the level
(:class:`~repro.core.embedding_table.Codes`); a pair level counted from
its ranges is filtered by wedge triple: its ranges stay, narrowed by the
triples kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..graph.patterns import Pattern
from ..gpusim.platform import GpuPlatform
from .embedding_table import Column, EmbeddingTable
from .pattern_table import PatternTable


@dataclass(frozen=True)
class MinSupport:
    """FPM constraint: keep patterns (and their instances) with support of
    at least ``threshold``."""

    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ExecutionError("support threshold must be >= 1")


@dataclass(frozen=True)
class QueryConstraint:
    """SM constraint: embeddings must satisfy the query graph's structure
    (used by the WOJ driver to derive extension-time pruning)."""

    pattern: Pattern


def filter_rows(
    table: EmbeddingTable, keep_mask: "np.ndarray | Column",
    compact: bool = True,
) -> int:
    """Apply a per-row predicate mask; returns rows removed.  ``keep_mask``
    may be the kept level itself (a pair level narrowed by its ranges).

    ``compact=False`` models frameworks that skip compression (the invalid
    rows stay allocated — their memory is not reclaimed), which is how the
    no-compaction baselines inflate Fig. 10's peak memory."""
    tel = table.platform.telemetry
    with tel.span("filtering", kind="phase"):
        if isinstance(keep_mask, Column):
            removed = (table.compact(kept_rows=keep_mask) if compact
                       else table.mark(kept_rows=keep_mask))
        else:
            keep_mask = np.asarray(keep_mask, dtype=bool)
            removed = (table.compact(keep_mask) if compact
                       else table.mark(keep_mask))
    if tel.active:
        tel.metric("filtering.rows_removed", removed)
    return removed


def filter_by_support(
    platform: GpuPlatform,
    table: EmbeddingTable,
    pattern_table: PatternTable,
    constraint: MinSupport,
    compact: bool = True,
    cpu: bool = False,
) -> int:
    """Algorithm 2 line 4, ``Filtering(ET, PT, constraint)``.

    Drops infrequent patterns from the pattern table and their instances
    from the embedding table; returns rows removed.

    The filter reads the codes the last level's aggregation left on its
    column: each distinct pattern is looked up once, and the note turns
    the frequent ones into a row mask or the pair level narrowed to its
    frequent triples.  A level with no codes raises
    :class:`ExecutionError`."""
    with platform.telemetry.span("support-filtering", kind="phase"):
        n = table.num_embeddings
        last = table.columns[-1] if table.columns else None
        if last is None or last.codes is None:
            raise ExecutionError(
                "support filtering reads the codes its level's aggregation "
                "left; this level was not aggregated")
        codes = last.codes
        keep = codes.kept(pattern_table.support_of(codes.distinct)
                          >= constraint.threshold, last)
        # The note goes with the column; no local keeps it through compact.
        del last, codes
        pattern_table.prune_below(constraint.threshold)
        if cpu:
            platform.cpu.work(n)
        else:
            platform.kernel.launch("filter:support", element_ops=n)
        return filter_rows(table, keep, compact=compact)
