"""The aggregation primitive (paper §III-B2 + Optimization 3).

``Aggregation(ET, m_f)`` maps every embedding to its pattern graph via
canonical labeling, then counts instances per pattern.  The heavy step is
grouping canonical codes whose total size may exceed device memory — that
is exactly what the out-of-core multi-merge sort (:mod:`repro.core.sort`)
exists for.

The canonical map uses the two-level quick-pattern scheme of
:mod:`repro.graph.canonical`; its device cost is charged per embedding.
The host encodes a level in row batches (:func:`encode_level`), so its
working set is the level's codes plus one batch.

The module also provides embedding-set deduplication for edge-oriented
growth: extending by "any adjacent edge" reaches the same edge set through
multiple orders, and instance counting requires each set once.  Dedup is
billed as GAMMA's sort+compact over the packed set keys.  On the host, a
pair level that unrestricted edge extension grew from the level-1 rows
(a ``PAIR`` :class:`~repro.core.embedding_table.Column`) emits each pair's
first occurrence by ranges of the parents' incident lists; any other
table packs each row's sorted ids and finds first occurrences by a sort.
"""

from __future__ import annotations

import numpy as np

from ..graph.canonical import MAX_VERTICES, QuickPatternEncoder, QuickPatterns
from ..graph.groupby import Grouped, first_occurrence, group_by
from ..gpusim.platform import GpuPlatform
from ..gpusim.regions import expand_ranges
from .embedding_table import EmbeddingTable
from .extension import _row_batches
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
    is still anti-monotone.  ``codes`` may come dictionary-encoded.  The
    one-batch case of :class:`_Images`, every pattern its own code.
    """
    uniq, inverse = codes if isinstance(codes, Grouped) else group_by(codes)
    if len(uniq) == 0:
        return uniq, np.empty(0, dtype=np.int64)
    width = positions.shape[1]
    images = _Images(width)
    images.add(inverse, positions)
    identity = np.broadcast_to(np.arange(width), (len(uniq), width))
    return uniq, images.supports(np.arange(len(uniq)), identity, len(uniq))


def _distinct_pairs(
    codes: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(code, vertex)`` pairs, as two arrays."""
    span = int(vertices.max()) + 1
    if (int(codes.max()) + 1) * span <= np.iinfo(np.int64).max:
        # One word per pair; its quotient is the code.
        return np.divmod(np.unique(codes * np.int64(span) + vertices), span)
    pairs = np.unique(np.stack([codes, vertices], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


class _Images:
    """MNI's input, gathered batch by batch: per column of vertex images,
    the distinct ``(pattern, data vertex)`` pairs seen there so far."""

    def __init__(self, width: int) -> None:
        empty = np.empty(0, dtype=np.int64)
        self._pairs = [(empty, empty)] * width

    def add(self, patterns: np.ndarray, images: np.ndarray) -> None:
        """Row ``i`` of a batch is an instance of ``patterns[i]`` whose
        column-``j`` vertex is data vertex ``images[i, j]`` (-1: none)."""
        for j, (seen, at) in enumerate(self._pairs):
            column = images[:, j]
            valid = column >= 0
            if valid.any():
                self._pairs[j] = _distinct_pairs(
                    np.concatenate([seen, patterns[valid]]),
                    np.concatenate([at, column[valid]]))

    def supports(self, rank: np.ndarray, placements: np.ndarray,
                 count: int) -> np.ndarray:
        """The MNI of each of ``count`` codes, pattern ``q`` counting
        towards code ``rank[q]`` with its canonical position ``p`` at
        column ``placements[q, p]`` (-1 past its size)."""
        mni = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
        covered = np.zeros(count, dtype=bool)
        for p in range(placements.shape[1]):
            codes, vertices = [], []
            for j, (seen, at) in enumerate(self._pairs):
                here = placements[seen, p] == j
                codes.append(rank[seen[here]])
                vertices.append(at[here])
            codes = np.concatenate(codes)
            if len(codes) == 0:
                continue
            distinct = _distinct_pairs(codes, np.concatenate(vertices))[0]
            counts = np.bincount(distinct, minlength=count)
            present = counts > 0
            mni[present] = np.minimum(mni[present], counts[present])
            covered |= present
        mni[~covered] = 0
        return mni


def encode_level(
    residence: GraphResidence,
    table: EmbeddingTable,
    encoder: QuickPatternEncoder,
    want_mni: bool = False,
) -> tuple[Grouped, np.ndarray | None]:
    """The last level's per-row canonical codes, dictionary-encoded, and
    with ``want_mni`` each distinct code's MNI support.

    The level is walked (:meth:`EmbeddingTable.walk_levels`, billed), then
    encoded in row batches of at most ``_BATCH_SLOTS`` edge slots: each
    batch's rows, endpoints and quick patterns are the host's only
    row-sized temporaries.  The batches' quick patterns fold into one
    level-wide table (:class:`~repro.graph.canonical.QuickPatterns`),
    canonicalized once; the endpoint reads are billed after the last
    batch, as one read of every row's edges.
    """
    n = table.num_embeddings
    levels = table.walk_levels(n)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return Grouped(empty, empty.copy()), (empty.copy() if want_mni else None)
    reads = residence.endpoint_reads()
    quick = QuickPatterns(encoder, table.depth, residence.graph.labels)
    ids = np.empty(n, dtype=np.int64)
    images = _Images(MAX_VERTICES) if want_mni else None
    for lo, hi in _row_batches(table.depth, n):
        edges = table.rows_of(levels, slice(lo, hi))
        src, dst = (end.reshape(edges.shape) for end in reads.gather(edges.ravel()))
        ids[lo:hi] = quick.add(src, dst)
        if images is not None:
            batch = ids[lo:hi]
            images.add(batch, quick.vertices(src, dst, batch)[:, :MAX_VERTICES])
    reads.charge()
    distinct, rank, placements = quick.canonicalize()
    mni = None if images is None else images.supports(rank, placements, len(distinct))
    return Grouped(distinct, rank[ids]), mni


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
    # The codes arrive grouped by their quick patterns; every consumer
    # below reads that grouping instead of regrouping the codes.
    groups, mni = encode_level(residence, table, encoder, support_metric == MNI)
    n = len(groups.index)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    quick_ops = n * table.depth * _QUICK_OPS_PER_EDGE
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
    if mni is not None:
        # One extra sort-like pass per canonical position.
        extra_ops = MAX_VERTICES * n
        if cpu:
            platform.cpu.work(extra_ops)
        else:
            platform.kernel.launch("aggregate:mni", element_ops=extra_ops)
        uniq, counts = groups.distinct, mni
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
    packed set keys, however the host finds them (:func:`_pair_first_rows`
    on a pair column, else a sort).
    """
    with platform.telemetry.span("dedup", kind="phase"):
        n = table.num_embeddings
        # The level's arrays are the helper's locals: gone before compact.
        kept = _dedup_kept(table, n)
        if kept is None:
            return 0
        log_n = float(np.log2(max(2, n)))
        if cpu:
            platform.cpu.work(n * log_n)
        else:
            platform.kernel.launch("dedup:sort", element_ops=n * log_n)
        if isinstance(kept, tuple):
            return table.compact(kept_rows=kept)
        return table.compact(kept)


def _dedup_kept(table: EmbeddingTable, n: int):
    """What dedup keeps of the last level, its reads billed (``None``: no
    rows): on a pair level the range rule holds for, the kept rows'
    ``(values, parents)`` (:func:`_pair_first_rows`), read from its ranges
    alone — resident or faulted back from disk; else a keep mask of each
    row set's first occurrence."""
    pair = table.pair_source()
    levels = table.walk_levels(n, read_last=pair is None)
    if not n:
        return None
    if pair is not None:
        first = pair.first
        if pair.graph.edge_slots()[2] and bool(np.all(first[1:] > first[:-1])):
            return _pair_first_rows(pair)
        levels[-1] = (pair.values, pair.parents)
    return _sorted_keep(table.rows_of(levels, slice(None)))


def _pair_first_rows(pair) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each edge pair of ``pair``, as the kept
    rows' ``(values, parents)`` in row order.

    With every adjacency list ascending by edge id and the level-1 ids
    ``pair.first`` strictly ascending, rows ascend by edge id, so the pair ``{f, e}`` first occurs
    under ``f`` exactly when ``e > f`` or no level-1 row holds ``e``
    (``e`` is *dead*).  Per row, that is the dead edges before ``f``'s slot
    in each endpoint's list and every edge after it: ranges of one source
    array (the dead slots' ids, then all slots' ids), expanded in row
    batches of ``_BATCH_SLOTS`` straight into the output.
    """
    graph = pair.graph
    alive = np.zeros(graph.num_edges, dtype=bool)
    alive[pair.first] = True
    dead_slot = ~alive[graph.edge_ids]
    dead_slots = np.flatnonzero(dead_slot)
    # dead_rank[s]: dead slots before slot s, i.e. their index in source.
    dead_rank = np.zeros(len(dead_slot) + 1, dtype=np.int64)
    np.cumsum(dead_slot, out=dead_rank[1:])
    source = np.concatenate([graph.edge_ids[dead_slots], graph.edge_ids])
    starts, ends = pair.ranges()
    starts[:, 0::2] = dead_rank[starts[:, 0::2]]
    ends[:, 0::2] = dead_rank[ends[:, 0::2]]
    starts[:, 1::2] += len(dead_slots)
    ends[:, 1::2] += len(dead_slots)
    counts = (ends - starts).sum(axis=1)
    values = np.empty(int(counts.sum()), dtype=np.int64)
    parents = np.empty(len(values), dtype=np.int64)
    at = 0
    for lo, hi in _row_batches(counts):
        picks = expand_ranges(starts[lo:hi].ravel(), ends[lo:hi].ravel())
        values[at:at + len(picks)] = source[picks]
        parents[at:at + len(picks)] = np.arange(lo, hi).repeat(counts[lo:hi])
        at += len(picks)
    return values, parents


def _sorted_keep(mats: np.ndarray) -> np.ndarray:
    """Keep mask of each row set's first occurrence, by a sort."""
    # Pack each sorted row into one int64 when the ids fit (a scalar key
    # sorts by value, the void set key byte-wise).  Packing is bijective,
    # so the first-occurrence set equals the set-key one.
    bits = max(1, int(mats.max()).bit_length())
    if int(mats.min()) >= 0 and mats.shape[1] * bits <= _PACK_BITS_LIMIT:
        ordered = sorted_columns(mats)
        packed = ordered[0]
        for column in ordered[1:]:
            packed = (packed << bits) | column
        first_idx = first_occurrence(packed)
    else:
        __, first_idx = np.unique(embedding_set_keys(mats), return_index=True)
    keep = np.zeros(len(mats), dtype=bool)
    keep[first_idx] = True
    return keep
