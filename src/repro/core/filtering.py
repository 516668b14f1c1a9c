"""The filtering primitive (paper §III-B3).

Filtering enforces user constraints on the embedding table after extension
or aggregation: structural constraints of a query graph (SM), a minimum
support over the pattern table (FPM), or any user predicate.  Invalid rows
are removed by the table's three-stage compaction (§V-A) — the space
saving the paper notes other frameworks skip.  A pair level counted from
its ranges (:class:`~repro.core.aggregation.PairCodes`) is filtered by
wedge triple: its ranges stay, narrowed by the triples kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..graph.patterns import Pattern
from ..gpusim.platform import GpuPlatform
from .aggregation import PairCodes
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
    row_codes: np.ndarray,
    pattern_table: PatternTable,
    constraint: MinSupport,
    compact: bool = True,
    cpu: bool = False,
) -> int:
    """Algorithm 2 line 4: drop infrequent patterns from the pattern table
    and their instances from the embedding table.  Returns rows removed.

    Handed the very array an aggregation of ``table`` returned, the filter
    looks each distinct pattern up once and gathers through the grouping
    left on the table's last column; handed a pair level's
    :class:`~repro.core.aggregation.PairCodes` (or their record), it keeps
    the level's ranges narrowed to the frequent triples; any other codes
    (replayed, sharded, made by the caller) are looked up row by row."""
    with platform.telemetry.span("support-filtering", kind="phase"):
        n = table.num_embeddings
        # The grouping is the helper's local: gone before compact.
        keep = _support_keep(table, row_codes, pattern_table, constraint)
        pattern_table.prune_below(constraint.threshold)
        if cpu:
            platform.cpu.work(n)
        else:
            platform.kernel.launch("filter:support", element_ops=n)
        return filter_rows(table, keep, compact=compact)


def _support_keep(
    table: EmbeddingTable,
    row_codes,
    pattern_table: PatternTable,
    constraint: MinSupport,
) -> "np.ndarray | Column":
    """Per row of ``table``: whether its pattern is frequent — or, for
    pair codes, the last level narrowed to its frequent triples."""
    pair = PairCodes.of(row_codes)
    if pair is not None:
        last = table.columns[-1] if table.columns else None
        if last is None or not pair.describes(last):
            raise ExecutionError("pair codes must describe the last level")
        distinct, index = np.unique(pair.codes, return_inverse=True)
        frequent = (pattern_table.support_of(distinct)
                    >= constraint.threshold)[index]
        return Column.of_pair(
            pair.first, last.graph, deduped=pair.deduped,
            kept=None if frequent.all() else pair.triples[frequent],
            length=int(pair.counts[frequent].sum()))
    noted = table.columns[-1].codes if table.columns else None
    if noted is not None and noted.values is row_codes:
        groups = noted.groups
        frequent = pattern_table.support_of(groups.distinct) >= constraint.threshold
        return frequent[groups.index]
    row_codes = np.asarray(row_codes, dtype=np.int64)
    if len(row_codes) != table.num_embeddings:
        raise ExecutionError("row codes must cover every embedding")
    return pattern_table.support_of(row_codes) >= constraint.threshold
