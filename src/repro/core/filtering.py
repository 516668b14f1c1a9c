"""The filtering primitive (paper §III-B3).

Filtering enforces user constraints on the embedding table after extension
or aggregation: structural constraints of a query graph (SM), a minimum
support over the pattern table (FPM), or any user predicate.  Invalid rows
are removed by the table's three-stage compaction (§V-A) — the space
saving the paper notes other frameworks skip.
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
    table: EmbeddingTable, keep_mask: np.ndarray, compact: bool = True
) -> int:
    """Apply a per-row predicate mask; returns rows removed.

    ``compact=False`` models frameworks that skip compression (the invalid
    rows stay allocated — their memory is not reclaimed), which is how the
    no-compaction baselines inflate Fig. 10's peak memory."""
    tel = table.platform.telemetry
    with tel.span("filtering", kind="phase"):
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if compact:
            removed = table.compact(keep_mask)
        else:
            removed = len(keep_mask) - int(np.count_nonzero(keep_mask))
            # Mark-only: holes dropped from the logical view but bytes still
            # accounted by the table.  Replaced, not rewritten, as everywhere.
            last = table.columns[-1]
            table.columns[-1] = Column(
                last.values[keep_mask], last.parents[keep_mask]
            )
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
    left on the table's last column; any other codes (replayed, sharded,
    made by the caller) are looked up row by row."""
    with platform.telemetry.span("support-filtering", kind="phase"):
        noted = table.columns[-1].codes if table.columns else None
        if noted is not None and noted.values is row_codes:
            groups = noted.groups
            frequent = pattern_table.support_of(groups.distinct) >= constraint.threshold
            keep = frequent[groups.index]
        else:
            row_codes = np.asarray(row_codes, dtype=np.int64)
            if len(row_codes) != table.num_embeddings:
                raise ExecutionError("row codes must cover every embedding")
            keep = pattern_table.support_of(row_codes) >= constraint.threshold
        pattern_table.prune_below(constraint.threshold)
        if cpu:
            platform.cpu.work(len(keep))
        else:
            platform.kernel.launch("filter:support", element_ops=len(keep))
        return filter_rows(table, keep, compact=compact)
