"""The aggregation primitive (paper §III-B2 + Optimization 3).

``Aggregation(ET, m_f)`` maps every embedding to its pattern graph via
canonical labeling, then counts instances per pattern.  The heavy step is
grouping canonical codes whose total size may exceed device memory — that
is exactly what the out-of-core multi-merge sort (:mod:`repro.core.sort`)
exists for.

The canonical map uses the two-level quick-pattern scheme of
:mod:`repro.graph.canonical`; its device cost is charged per embedding.
Every engine builds a level's codes through :func:`level_codes`, which
leaves them on the level's column as its
:class:`~repro.core.embedding_table.Codes` note: the support filter reads
them there (``Filtering(ET, PT, constraint)``), and nothing else carries
them.  The host encodes a level in row batches (:func:`encode_level`), so
its working set is the level's codes plus one batch.  A pair level (a
``PAIR`` :class:`~repro.core.embedding_table.Column`) counted by instance
support reads no row: a two-edge embedding is a wedge whose code is fixed
by three labels — the centre's and the two ends' (Pangolin's customized
classification of 3-vertex embeddings) — so each triple is counted from
the level's ranges (:class:`_PairCounts`) and encoded once, billed as the
rows it stands for.

The module also provides embedding-set deduplication for edge-oriented
growth: extending by "any adjacent edge" reaches the same edge set through
multiple orders, and instance counting requires each set once.  Dedup is
billed as GAMMA's sort+compact over the packed set keys.  On the host, a
pair level that unrestricted edge extension grew from the level-1 rows
keeps each pair's first occurrence as ranges of the parents' incident
lists (:meth:`~repro.core.embedding_table.Column.deduplicated`); any other
table packs each row's sorted ids and finds first occurrences by a sort.
"""

from __future__ import annotations

import numpy as np

from ..graph.canonical import (
    MAX_VERTICES, QuickPatternEncoder, QuickPatterns,
)
from ..graph.groupby import Grouped, _run_starts, first_occurrence, group_by
from ..gpusim.platform import GpuPlatform
from ..gpusim.regions import covered_units, expand_ranges
from .embedding_table import PAIR, Codes, Column, EmbeddingTable
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


def check_support_metric(support_metric: str) -> None:
    """Raise ``ValueError`` unless ``support_metric`` is one of
    :data:`SUPPORT_METRICS`."""
    if support_metric not in SUPPORT_METRICS:
        raise ValueError(
            f"support_metric must be one of {SUPPORT_METRICS}, got {support_metric!r}"
        )


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
    levels: list | None = None,
) -> tuple[Grouped, np.ndarray | None]:
    """The last level's per-row canonical codes, dictionary-encoded, and
    with ``want_mni`` each distinct code's MNI support.

    The level is walked (:meth:`EmbeddingTable.walk_levels`, billed; a
    caller that walked it hands the walk's ``levels``), then
    encoded in row batches of at most ``_BATCH_SLOTS`` edge slots: each
    batch's rows, endpoints and quick patterns are the host's only
    row-sized temporaries.  The batches' quick patterns fold into one
    level-wide table (:class:`~repro.graph.canonical.QuickPatterns`),
    canonicalized once; the endpoint reads are billed after the last
    batch, as one read of every row's edges.
    """
    n = table.num_embeddings
    if levels is None:
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


def level_codes(
    residence: GraphResidence,
    table: EmbeddingTable,
    encoder: QuickPatternEncoder,
    want_mni: bool = False,
) -> tuple[Codes, object, np.ndarray | None]:
    """The last level's codes, left on its column as its
    :class:`~repro.core.embedding_table.Codes` note; the keys an
    aggregation sort counts; and with ``want_mni`` each distinct code's
    MNI support.  Every engine's aggregation builds its codes here.

    The level is walked (billed as :meth:`EmbeddingTable.walk_levels`
    bills it) and its endpoint reads are billed as one read of ``n x
    depth`` ids.  A pair level under instance support is counted from its
    ranges (:func:`_pair_codes`); any other level is encoded row by row
    (:func:`encode_level`)."""
    n = table.num_embeddings
    levels = table.walk_levels(n, read_last=False)
    last = levels[-1]
    if n and not want_mni and _countable(last):
        codes, keys = _pair_codes(residence, table.depth, last, encoder)
        mni = None
    else:
        levels[-1] = (last.values, last.parents)
        del last
        groups, mni = encode_level(residence, table, encoder, want_mni, levels)
        codes = keys = Codes(*groups)
    table.columns[-1].codes = codes
    return codes, keys, mni


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
) -> None:
    """Aggregate an e-ET into the pattern table.

    The pattern table gains/updates one entry per pattern, whose support
    is instance frequency or MNI per ``support_metric``; the level's codes
    stay on its column for the support filter (:func:`level_codes`).
    """
    check_support_metric(support_metric)
    tel = platform.telemetry
    n = table.num_embeddings
    with tel.span("aggregation", kind="phase"):
        _aggregate_edge_table_impl(
            platform, residence, table, encoder, pattern_table,
            sort_method, p_size, cpu, support_metric == MNI,
        )
    if tel.active:
        tel.metric("aggregation.rows", n)


def _aggregate_edge_table_impl(
    platform: GpuPlatform,
    residence: GraphResidence,
    table: EmbeddingTable,
    encoder: QuickPatternEncoder,
    pattern_table: PatternTable,
    sort_method: str,
    p_size: int,
    cpu: bool,
    want_mni: bool,
) -> None:
    n = table.num_embeddings
    codes, keys, mni = level_codes(residence, table, encoder, want_mni)
    if n == 0:
        return
    quick_ops = n * table.depth * _QUICK_OPS_PER_EDGE
    if cpu:
        platform.cpu.work(quick_ops)
        # CPU baselines group with a hash table rather than a sort.
        platform.cpu.work(n * 2)
        uniq, counts = codes.distinct, codes.code_counts()
    else:
        platform.kernel.launch("aggregate:quick-pattern", element_ops=quick_ops)
        uniq, counts = sort_and_count(
            platform, keys, method=sort_method, p_size=p_size
        )
    if mni is not None:
        # One extra sort-like pass per canonical position.
        extra_ops = MAX_VERTICES * n
        if cpu:
            platform.cpu.work(extra_ops)
        else:
            platform.kernel.launch("aggregate:mni", element_ops=extra_ops)
        uniq, counts = codes.distinct, mni
    pattern_table.merge(uniq, counts)


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
    packed set keys, however the host finds them (a pair level's ranges,
    else a sort).
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
        if isinstance(kept, Column):
            return table.compact(kept_rows=kept)
        return table.compact(kept)


def _dedup_kept(table: EmbeddingTable, n: int):
    """What dedup keeps of the last level, its reads billed (``None``: no
    rows): a pair level the range rule holds for — every list ascending by
    edge id, the level-1 ids strictly ascending — narrowed to each pair's
    first occurrence (:meth:`Column.deduplicated`), read from its ranges
    alone, resident or faulted back from disk; else a keep mask of each
    row set's first occurrence, by a sort."""
    levels = table.walk_levels(n, read_last=False)
    if not n:
        return None
    last = levels[-1]
    if last.source == PAIR:
        first = last.first
        if last.graph.edge_slots()[2] and bool(np.all(first[1:] > first[:-1])):
            return last.deduplicated()
    levels[-1] = (last.values, last.parents)
    del last
    return _sorted_keep(table.rows_of(levels, slice(None)))


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


# -- a pair level counted from its ranges -----------------------------------------
def _countable(column: Column) -> bool:
    """Whether aggregation counts ``column`` from its ranges: a pair level
    not narrowed by a support filter, over non-negative labels."""
    return (column.source == PAIR and column.kept is None
            and int(column.graph.labels.min(initial=0)) >= 0)


class _PairCounts:
    """A pair level's rows counted by wedge triple from its ranges.

    Every non-empty range is a run of rows sharing a prefix (centre and
    other-end label, :meth:`Column.triples`); a row's far-end label is its
    source slot's neighbour's.  Each range has one far-end-label histogram,
    built once from a cumulative count per label present read at the range
    ends; an interval of rows counts its ranges' histograms, re-counting a
    range an interval bound cuts past the cut alone.  No row is formed."""

    def __init__(self, pair: Column) -> None:
        graph = pair.graph
        source, starts, ends = pair.ranges()
        prefix, self.span = pair.triples()
        self._pair = pair
        self._far = graph.labels[graph.neighbors if source is None
                                 else graph.neighbors[source]]
        lengths = (ends - starts).ravel()
        at = np.flatnonzero(lengths > 0)
        rows = at // starts.shape[1]
        self._first = pair.first.take(rows[_run_starts(rows)])
        self._starts = starts.ravel().take(at)
        self._ends = ends.ravel().take(at)
        self._prefix = prefix.ravel().take(at)
        self._row_end = np.cumsum(lengths.take(at))
        self.rows = int(self._row_end[-1]) if len(at) else 0
        self._labels = np.flatnonzero(np.bincount(self._far))
        # _histograms[j, r]: rows of range r whose far end has _labels[j].
        self._histograms = np.empty(
            (len(self._labels), len(at)),
            np.min_scalar_type(int(lengths.max(initial=0))))
        # Not read past here: freed before the histograms' scratch.
        del prefix, lengths, rows
        running = np.zeros(len(self._far) + 1, dtype=np.int64
                           if len(self._far) >> 31 else np.int32)
        for histogram, label in zip(self._histograms, self._labels):
            np.cumsum(self._far == label, out=running[1:])
            np.subtract(running.take(self._ends), running.take(self._starts),
                        out=histogram, casting="unsafe")

    def read_ids(self) -> np.ndarray:
        """The distinct edge ids the rows hold (with repeats): each level-1
        edge that has children, and every id a range covers."""
        source = self._pair.ranges()[0]
        slots = covered_units(self._starts, self._ends - 1, len(self._far))
        return np.concatenate([self._first, self._pair.graph.edge_ids[
            slots if source is None else source[slots]]])

    def counts(self, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(segment, triple, count)`` over the row intervals between
        consecutive ``bounds`` (ascending, ``0`` to :attr:`rows`), the
        non-zero entries only, by segment, then triple."""
        bounds = np.asarray(bounds, dtype=np.int64)
        pairs = self.span * self.span
        row_start = np.append(self._row_end - (self._ends - self._starts),
                              self.rows)
        # A range counts towards the segment it starts in, grouped by the
        # dense key segment x span² + prefix ...
        keys = (np.searchsorted(bounds, row_start[:-1], side="right") - 1
                ) * pairs + self._prefix
        table = np.empty(((len(bounds) - 1) * pairs, len(self._labels)))
        for j, histogram in enumerate(self._histograms):
            table[:, j] = np.bincount(keys, weights=histogram,
                                      minlength=len(table))
        # ... but for its rows past each bound that cuts it: the tail moves
        # from the segment before the bound to the bound's own.
        cuts = np.unique(bounds[1:-1])
        at = np.searchsorted(self._row_end, cuts, side="right")
        inside = row_start[at] < cuts
        for cut, r in zip(cuts[inside], at[inside]):
            tail = self._far[self._starts[r] + cut - row_start[r]:self._ends[r]]
            tail = np.bincount(tail, minlength=self.span)[self._labels]
            before, after = np.searchsorted(bounds, [cut - 1, cut],
                                            side="right") - 1
            table[before * pairs + self._prefix[r]] -= tail
            table[after * pairs + self._prefix[r]] += tail
        key, label = np.nonzero(table)
        segment, prefix = np.divmod(key, pairs)
        return (segment, prefix * self.span + self._labels[label],
                table[key, label].astype(np.int64))

    def row_triples(self) -> np.ndarray:
        """Each row's triple, in row order (a read of every row)."""
        lengths = self._ends - self._starts
        picks = expand_ranges(self._starts, self._ends)
        return self._prefix.repeat(lengths) * self.span + self._far[picks]


def _wedge_codes(encoder: QuickPatternEncoder, triples: np.ndarray,
                 span: int) -> np.ndarray:
    """The canonical code of each wedge triple, through ``encoder``'s own
    quick patterns: one two-edge embedding a triple, centre first, encoded
    in batches of ``_BATCH_SLOTS // 2`` as a level's rows are."""
    centre, rest = np.divmod(triples, span * span)
    labels = np.stack([centre, *np.divmod(rest, span)], axis=1).ravel()
    base = 3 * np.arange(len(triples), dtype=np.int64)
    quick = QuickPatterns(encoder, 2, labels)
    ids = np.empty(len(triples), dtype=np.int64)
    for lo, hi in _row_batches(2, len(triples)):
        ids[lo:hi] = quick.add(np.stack([base[lo:hi]] * 2, axis=1),
                               np.stack([base[lo:hi] + 1, base[lo:hi] + 2],
                                        axis=1))
    distinct, rank, __ = quick.canonicalize()
    return distinct[rank[ids]]


class _PairKeys:
    """The sort's dictionary-encoded keys for a pair level: its note's
    ``distinct`` codes, counted over row intervals from the ranges
    (:mod:`repro.core.sort`)."""

    def __init__(self, counted: _PairCounts, codes: Codes) -> None:
        self._counted = counted
        self._codes = codes
        self.distinct = codes.distinct

    def __len__(self) -> int:
        return self._counted.rows

    def _code_of(self, triples: np.ndarray) -> np.ndarray:
        return self._codes.index[np.searchsorted(self._codes.triples, triples)]

    def segment_counts(self, bounds) -> np.ndarray:
        segment, triple, count = self._counted.counts(bounds)
        width = len(self.distinct)
        return np.bincount(segment * width + self._code_of(triple),
                           weights=count,
                           minlength=(len(bounds) - 1) * width
                           ).astype(np.int64).reshape(-1, width)

    def rows(self) -> np.ndarray:
        return self.distinct[self._code_of(self._counted.row_triples())]


def _pair_codes(residence, depth, pair, encoder) -> tuple[Codes, _PairKeys]:
    """A pair level's codes per wedge triple, counted from its ranges and
    billed as :func:`encode_level` bills its rows: endpoint reads of ``n x
    depth`` ids (a device read counts them, a zero-copy one touches each
    id's line).  The keys count the sort's segments from the ranges."""
    counted = _PairCounts(pair)
    reads = residence.endpoint_reads()
    reads.note(counted.read_ids(), counted.rows * depth)
    reads.charge()
    __, triples, counts = counted.counts([0, counted.rows])
    distinct, index = np.unique(_wedge_codes(encoder, triples, counted.span),
                                return_inverse=True)
    codes = Codes(distinct, index, triples=triples, counts=counts,
                  first=pair.first)
    return codes, _PairKeys(counted, codes)
