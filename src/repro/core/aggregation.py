"""The aggregation primitive (paper §III-B2 + Optimization 3).

``Aggregation(ET, m_f)`` maps every embedding to its pattern graph via
canonical labeling, then counts instances per pattern.  The heavy step is
grouping canonical codes whose total size may exceed device memory — that
is exactly what the out-of-core multi-merge sort (:mod:`repro.core.sort`)
exists for.

The canonical map uses the two-level quick-pattern scheme of
:mod:`repro.graph.canonical`; its device cost is charged per embedding.

The module also provides embedding-set deduplication for edge-oriented
growth: extending by "any adjacent edge" reaches the same edge set through
multiple orders, and instance counting requires each set once.  Dedup packs
each row's sorted edge ids and unique-sorts them with the same external
sort machinery.
"""

from __future__ import annotations

import numpy as np

from ..graph.canonical import QuickPatternEncoder
from ..graph.groupby import Grouped, first_occurrence, group_by
from ..gpusim.platform import GpuPlatform
from .embedding_table import EmbeddingTable
from .pattern_table import PatternTable
from .residence import GraphResidence
from .sort import DEFAULT_P_SIZE, MULTI_MERGE, sort_and_count

#: Charged device ops per embedding for the quick-pattern relabel+pack.
_QUICK_OPS_PER_EDGE = 24

#: Overflow bound for dedup's single-int64 row packing; wider rows keep the
#: void-dtype set keys.
_PACK_BITS_LIMIT = 62

#: Support metrics: raw instance frequency (the paper's §III definition)
#: or minimum-image-based support (the anti-monotone FSM standard).
INSTANCES = "instances"
MNI = "mni"
SUPPORT_METRICS = (INSTANCES, MNI)


def mni_supports(
    codes: np.ndarray | Grouped, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image-based support per pattern.

    ``positions[i, p]`` is the data vertex embedding ``i`` maps to the
    pattern's canonical position ``p`` (-1 past the pattern's size).  A
    pattern's MNI is the minimum, over its positions, of the number of
    *distinct* data vertices seen there — the largest support measure that
    is still anti-monotone.  ``codes`` may come dictionary-encoded.
    """
    uniq, inverse = codes if isinstance(codes, Grouped) else group_by(codes)
    if len(uniq) == 0:
        return uniq, np.empty(0, dtype=np.int64)
    mni = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    covered = np.zeros(len(uniq), dtype=bool)
    for p in range(positions.shape[1]):
        column = positions[:, p]
        valid = column >= 0
        if not valid.any():
            continue
        pair_code = inverse[valid]
        pair_vertex = column[valid]
        span = int(pair_vertex.max()) + 1
        if len(uniq) * span <= np.iinfo(np.int64).max:
            # One word per (pattern, vertex) pair; its quotient is the pattern.
            distinct = np.unique(pair_code * np.int64(span) + pair_vertex) // span
        else:
            pairs = np.stack([pair_code, pair_vertex], axis=1)
            distinct = np.unique(pairs, axis=0)[:, 0]
        counts = np.bincount(distinct, minlength=len(uniq))
        present = counts > 0
        mni[present] = np.minimum(mni[present], counts[present])
        covered |= present
    mni[~covered] = 0
    return uniq, mni.astype(np.int64)


def aggregate_edge_table(
    platform: GpuPlatform,
    residence: GraphResidence,
    table: EmbeddingTable,
    encoder: QuickPatternEncoder,
    pattern_table: PatternTable,
    sort_method: str = MULTI_MERGE,
    p_size: int = DEFAULT_P_SIZE,
    cpu: bool = False,
    support_metric: str = INSTANCES,
) -> np.ndarray:
    """Aggregate an e-ET into the pattern table.

    Returns the per-row canonical codes (needed afterwards by the support
    filter).  The pattern table gains/updates one entry per pattern, whose
    support is instance frequency or MNI per ``support_metric``.
    """
    tel = platform.telemetry
    with tel.span("aggregation", kind="phase"):
        codes = _aggregate_edge_table_impl(
            platform, residence, table, encoder, pattern_table,
            sort_method, p_size, cpu, support_metric,
        )
    if tel.active:
        tel.metric("aggregation.rows", len(codes))
    return codes


def _aggregate_edge_table_impl(
    platform: GpuPlatform,
    residence: GraphResidence,
    table: EmbeddingTable,
    encoder: QuickPatternEncoder,
    pattern_table: PatternTable,
    sort_method: str,
    p_size: int,
    cpu: bool,
    support_metric: str,
) -> np.ndarray:
    if support_metric not in SUPPORT_METRICS:
        raise ValueError(
            f"support_metric must be one of {SUPPORT_METRICS}, got {support_metric!r}"
        )
    mats = table.materialize()
    n, k = (mats.shape if mats.size else (0, max(1, table.depth)))
    if n == 0:
        return np.empty(0, dtype=np.int64)
    src, dst = residence.endpoints_of(mats.ravel())
    want_mni = support_metric == MNI
    encoded = encoder.encode_edge_embeddings(
        src.reshape(n, k), dst.reshape(n, k),
        residence.graph.labels,  # gammalint: allow[charge] -- label gathers are billed in the encode kernel's element_ops below
        return_positions=want_mni,
        grouped=True,
    )
    # The codes arrive grouped by their quick patterns; every consumer
    # below reads that grouping instead of regrouping the codes.
    groups, positions = encoded if want_mni else (encoded, None)
    quick_ops = n * k * _QUICK_OPS_PER_EDGE
    if cpu:
        platform.cpu.work(quick_ops)
        # CPU baselines group with a hash table rather than a sort.
        platform.cpu.work(n * 2)
        uniq = groups.distinct
        counts = np.bincount(groups.index, minlength=len(uniq))
    else:
        platform.kernel.launch("aggregate:quick-pattern", element_ops=quick_ops)
        uniq, counts = sort_and_count(
            platform, groups, method=sort_method, p_size=p_size
        )
    if want_mni:
        # One extra sort-like pass per canonical position.
        extra_ops = positions.shape[1] * n
        if cpu:
            platform.cpu.work(extra_ops)
        else:
            platform.kernel.launch("aggregate:mni", element_ops=extra_ops)
        uniq, counts = mni_supports(groups, positions)
    pattern_table.merge(uniq, counts)
    codes = groups.distinct[groups.index]
    table.note_codes(codes, groups)
    return codes


def embedding_set_keys(mats: np.ndarray) -> np.ndarray:
    """Order-insensitive key per embedding row (the sorted id set packed to
    bytes).  Rows with equal keys are the same subgraph instance."""
    if mats.size == 0:
        return np.empty(0, dtype=np.void)
    ordered = np.sort(mats, axis=1)
    contiguous = np.ascontiguousarray(ordered)
    return contiguous.view(
        np.dtype((np.void, contiguous.dtype.itemsize * contiguous.shape[1]))
    ).ravel()


def sorted_columns(mats: np.ndarray) -> list[np.ndarray]:
    """The columns of ``np.sort(mats, axis=1)`` by an insertion network of
    whole-column compare-exchanges: embedding rows are a handful of ids
    wide and millions long, the shape a per-row sort handles worst."""
    columns = [mats[:, j] for j in range(mats.shape[1])]
    for end in range(1, len(columns)):
        for j in range(end, 0, -1):
            a, b = columns[j - 1], columns[j]
            columns[j - 1], columns[j] = np.minimum(a, b), np.maximum(a, b)
    return columns


def dedup_embeddings(
    platform: GpuPlatform,
    table: EmbeddingTable,
    cpu: bool = False,
) -> int:
    """Remove duplicate embeddings (same id set, different discovery order).

    Returns the number of rows removed.  Charged as a sort+compact over the
    packed set keys.
    """
    with platform.telemetry.span("dedup", kind="phase"):
        mats = table.materialize()
        if mats.size == 0:
            return 0
        n = len(mats)
        # Pack each sorted row into one int64 when the ids fit (a scalar
        # key sorts by value, the void set key byte-wise).  Packing is
        # bijective, so the first-occurrence set equals the set-key one.
        bits = max(1, int(mats.max()).bit_length())
        if int(mats.min()) >= 0 and mats.shape[1] * bits <= _PACK_BITS_LIMIT:
            ordered = sorted_columns(mats)
            packed = ordered[0]
            for column in ordered[1:]:
                packed = (packed << bits) | column
            first_idx = first_occurrence(packed)
        else:
            __, first_idx = np.unique(
                embedding_set_keys(mats), return_index=True
            )
        keep = np.zeros(n, dtype=bool)
        keep[first_idx] = True
        log_n = float(np.log2(max(2, n)))
        if cpu:
            platform.cpu.work(n * log_n)
        else:
            platform.kernel.launch("dedup:sort", element_ops=n * log_n)
        return table.compact(keep)
