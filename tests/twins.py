"""Straight-line twins of the hot paths, for differential testing.

Each function here is the obvious way to compute what a batched hot path
in ``src/`` computes — full-width boolean masks, a per-row walk, a plain
``np.unique`` — and must agree with it bit for bit: same rows, same
simulated clock buckets, same counters.  :func:`straight_line` installs
all of them over the seams they replace, so a suite runs a scenario once
as shipped and once under the twins and compares the two.

The twins share the simulator's *charging* calls (``has_edges``,
``labels_of``) with the code under test; what they do not share is the
order and batching of the work, which is what the hot paths optimise.
(:mod:`tests.oracle` is the other idiom: recounts that share nothing.)
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from importlib import import_module
from unittest import mock

import numpy as np

from repro.core import extension
from repro.core.extension import ExtensionEngine
from repro.errors import ExecutionError, InvalidPatternError
from repro.gpusim import regions, unified
from repro.gpusim import stats as st
from repro.graph import csr, groupby
from repro.graph.canonical import MAX_LABEL, MAX_VERTICES, QuickPatternEncoder

# ``repro.core.aggregation`` the attribute is the re-exported function.
aggregation = import_module("repro.core.aggregation")
sort = import_module("repro.core.sort")


def prune_by_mask_cascade(engine, cand, cand_row, mats, verify_cols,
                          distinct_cols, greater_than_cols=(),
                          less_than_cols=()):
    """``ExtensionEngine._prune_candidates``: AND one full-width mask per
    constraint, adjacency first, then index once.  The ordering columns
    are the twin's own: shipped callers bound the expanded range instead
    (``_bound_ranges``) and pass none."""
    mask = np.ones(len(cand), dtype=bool)
    for col in verify_cols:
        mask &= engine.graph.has_edges(mats[cand_row, col], cand)
    for col in distinct_cols:
        mask &= cand != mats[cand_row, col]
    for col in greater_than_cols:
        mask &= cand > mats[cand_row, col]
    for col in less_than_cols:
        mask &= cand < mats[cand_row, col]
    return cand[mask], cand_row[mask]


def bound_ranges_by_scan(keys, owners, starts, lengths, mats, rows,
                         greater_than_cols, less_than_cols):
    """``extension._bound_ranges``: walk each range, compare every value
    with every ordering column, and keep the run that passes (the lists
    are sorted, so the survivors are contiguous)."""
    starts, lengths = starts.copy(), lengths.copy()
    for i, row in enumerate(rows.tolist()):
        values = keys[starts[i]:starts[i] + lengths[i]] & 0xFFFFFFFF
        keep = np.ones(len(values), dtype=bool)
        for col in greater_than_cols:
            keep &= values > mats[row, col]
        for col in less_than_cols:
            keep &= values < mats[row, col]
        live = np.flatnonzero(keep)
        starts[i] += live[0] if len(live) else 0
        lengths[i] = len(live)
    return starts, lengths


def labelled_min_degree_walk(engine, mats, anchor_cols, anchor_deg,
                             distinct_cols, greater_than_cols,
                             less_than_cols, label, carried, count_only):
    """``ExtensionEngine._surviving_candidates``: per row, expand the whole
    of the shortest anchor list, verify the others, filter by id ordering
    afterwards, and probe each source part's survivors through
    ``labels_of`` (which bills them) — the per-row algorithm the cost
    model was written against, with no prefix sharing between sibling
    rows, no ordering bounds on what is expanded, nothing read from the
    ``carried`` column and nothing left on the next; a ``count_only``
    level is expanded all the same and counted at the end."""
    graph = engine.graph
    source_choice = np.argmin(anchor_deg, axis=1)
    cands, cand_rows = [], []
    for idx, source_col in enumerate(anchor_cols):
        rows = np.flatnonzero(source_choice == idx)
        if len(rows) == 0:
            continue
        cand, cand_row = extension._expand_lists(
            graph.neighbors, graph.offsets[mats[rows, source_col]],
            anchor_deg[rows, idx], rows,
        )
        cand, cand_row = prune_by_mask_cascade(
            engine, cand, cand_row, mats,
            [c for c in anchor_cols if c != source_col], distinct_cols,
            greater_than_cols, less_than_cols,
        )
        if label is not None:
            keep = engine.residence.labels_of(cand) == label
            cand, cand_row = cand[keep], cand_row[keep]
        cands.append(cand)
        cand_rows.append(cand_row)
    cand = np.concatenate(cands) if cands else np.empty(0, dtype=np.int64)
    cand_row = np.concatenate(cand_rows) if cands else np.empty(0, dtype=np.int64)
    order = np.argsort(cand_row, kind="stable")
    counts = np.bincount(cand_row, minlength=len(mats)).astype(np.int64)
    found = None if count_only else (cand[order], cand_row[order])
    return counts, found, None


def first_appearance_relabel(seq):
    """Row-wise first-appearance relabeling of integer sequences.

    For each row, the first distinct value becomes 0, the second 1, and so
    on.  Returns ``(ids, fresh)``: ``uint8`` ids and a bool matrix marking
    the position where each distinct value first appears, both ``(n, m)``
    with contiguous *columns* for the O(width^2) unrolled scan (widths
    here are at most ``2 * MAX_EDGES``).  Every earlier position holding
    a value carries the same id, so any match may overwrite the default.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if seq.ndim != 2 or seq.shape[1] > 256:
        raise ValueError("seq must be 2-D (rows of <= 256-long vertex sequences)")
    n, m = seq.shape
    ids = np.zeros((m, n), dtype=np.uint8).T
    fresh = np.ones((m, n), dtype=bool).T
    next_id = np.ones(n, dtype=np.uint8)
    for j in range(1, m):
        column_ids = next_id.copy()
        for jp in range(j):
            np.copyto(column_ids, ids[:, jp], where=seq[:, jp] == seq[:, j])
        ids[:, j] = column_ids
        np.equal(column_ids, next_id, out=fresh[:, j])
        next_id += fresh[:, j]
    return ids, fresh


def quick_groups_by_rows(srcs, dsts, vertex_labels):
    """``QuickPatternEncoder._group_quick``: relabel whole rows by first
    appearance, pack each row's structure and labels into ``(qa, qb)``
    words and group the word pairs with ``np.unique(axis=0)`` (the
    shipped code groups column by column and packs only the distinct
    patterns).  A pattern's first-appearance columns are read off its
    first row."""
    n, k = srcs.shape
    # Row i is [s0, d0, s1, d1, ...]; columns are contiguous.
    seq = np.empty((2 * k, n), dtype=np.int64).T
    seq[:, 0::2] = srcs
    seq[:, 1::2] = dsts
    ids, fresh = first_appearance_relabel(seq)
    vertices = int(ids.max(initial=0)) + 1
    if vertices > MAX_VERTICES:
        raise InvalidPatternError(f"at most {MAX_VERTICES} vertices per embedding")

    # Structure word: byte t = (src_id << 4) | dst_id of edge t.
    edge_bytes = np.zeros((n, 8), dtype=np.uint8)
    for t in range(k):
        edge_bytes[:, t] = (ids[:, 2 * t] << 4) | ids[:, 2 * t + 1]
    qa = edge_bytes.view("<i8").ravel()

    # Label word: byte v = label of *relabelled* vertex v (a repeated
    # vertex ORs the same label into the same byte again).
    labels_at = vertex_labels[seq.T].astype(np.int64, copy=False)
    if int(labels_at.max()) > MAX_LABEL or int(labels_at.min()) < 0:
        raise InvalidPatternError(f"labels must be in [0, {MAX_LABEL}]")
    qb = np.zeros(n, dtype=np.int64)
    for j in range(2 * k):
        qb |= labels_at[j] << (ids[:, j].astype(np.int64) << 3)

    quick, first_row, inverse = np.unique(
        np.stack([qa, qb], axis=1), axis=0, return_index=True,
        return_inverse=True)
    first_at = np.full((len(quick), MAX_VERTICES + 1), -1, dtype=np.int64)
    for g, row in enumerate(first_row):
        for j in np.flatnonzero(fresh[row]):
            first_at[g, ids[row, j]] = j
    return quick, first_at, inverse.ravel()


def pair_keep_by_sorting(first, parents, values):
    """``aggregation.pair_lookup_keep``: the first occurrence of each
    pair set, found by ``np.unique`` over the pairs, each sorted."""
    pairs = np.sort(np.stack([first[parents], values], axis=1), axis=1)
    __, first_idx = np.unique(pairs, axis=0, return_index=True)
    keep = np.zeros(len(pairs), dtype=bool)
    keep[first_idx] = True
    return keep


def never_memoised(batch, starts, ends, token=0):
    """``ChargeBatch.lookup``: every charge re-derives its pages."""
    return None


def device_sort_segments(platform, keys, segment_len):
    """Phase 1 of the out-of-core sort as the model describes it: split
    ``keys`` into device-sized segments, sort each on the device, and
    write the sorted segments back to host memory."""
    if segment_len <= 0:
        raise ExecutionError("segment_len must be positive")
    keys = np.asarray(keys)
    segments = []
    for start in range(0, len(keys), segment_len):
        chunk = keys[start: start + segment_len]
        platform.pcie.explicit_copy(chunk.nbytes, to_device=True)
        platform.kernel.launch(
            "segment-sort",
            element_ops=len(chunk) * sort._log2(len(chunk)),
            device_bytes=2 * chunk.nbytes,
        )
        platform.pcie.writeback(chunk.nbytes)
        segments.append(np.sort(chunk))
    platform.counters.add(st.SORT_ELEMENTS, len(keys))
    return segments


def _merge_subtask(platform, lists, out, offset, skip_reverse_search):
    """Merge aligned short lists into ``out[offset:...]``: each element's
    position is its local index plus its matched index in every other
    list.  ``skip_reverse_search=False`` searches both directions of every
    pair; otherwise Fig. 9(c)'s prefix sum recovers the reverse one."""
    lists = [lst for lst in lists if len(lst)]
    if not lists:
        return
    positions = [np.arange(len(lst), dtype=np.int64) for lst in lists]
    search_ops = 0.0
    for j in range(len(lists)):
        for k in range(j + 1, len(lists)):
            s_j, s_k = lists[j], lists[k]
            # Matched index of each S_j element over S_k (ties: j first).
            idx_jk = np.searchsorted(s_k, s_j, side="left")
            positions[j] += idx_jk
            step_cost = platform.cost.search_step_ops
            search_ops += len(s_j) * sort._log2(len(s_k)) * step_cost
            if skip_reverse_search:
                counts = np.bincount(idx_jk, minlength=len(s_k) + 1)
                positions[k] += np.cumsum(counts)[: len(s_k)]
                search_ops += len(s_k)  # prefix-sum pass
            else:
                idx_kj = np.searchsorted(s_j, s_k, side="right")
                positions[k] += idx_kj
                search_ops += len(s_k) * sort._log2(len(s_j)) * step_cost
    total = sum(len(lst) for lst in lists)
    for lst, pos in zip(lists, positions):
        out[offset + pos] = lst
    platform.kernel.launch(
        "multi-merge:subtask",
        element_ops=search_ops + total,
        device_bytes=total * out.dtype.itemsize * 2,
    )


def multi_merge(platform, segments, p_size=sort.DEFAULT_P_SIZE,
                skip_reverse_search=True):
    """Phase 2 (Algorithm 3) executed element by element: pool every
    segment's checkpoints into Ω, split every segment at its matched
    indices (Def. 5.1, ``searchsorted`` side='left') and merge each
    aligned subtask by scattering its elements to their positions."""
    segments = [np.asarray(seg) for seg in segments]
    for seg in segments:
        # Direct comparison, not np.diff: differences of extreme int64
        # values overflow and would flag a sorted segment as unsorted.
        if len(seg) > 1 and (seg[1:] < seg[:-1]).any():
            raise ExecutionError("multi_merge requires sorted segments")
    total = sum(len(seg) for seg in segments)
    if total == 0:
        return np.empty(0, dtype=segments[0].dtype if segments else np.int64)
    if p_size <= 0:
        raise ExecutionError("p_size must be positive")
    points = [seg[p_size::p_size] for seg in segments if len(seg) > p_size]
    omega = (np.unique(np.concatenate(points)) if points
             else np.empty(0, dtype=segments[0].dtype))
    search_ops = sum(
        len(omega) * sort._log2(len(seg)) * platform.cost.search_step_ops
        for seg in segments
    )
    platform.kernel.launch("multi-merge:split", element_ops=search_ops)
    bounds = [
        np.concatenate([[0], np.searchsorted(seg, omega, side="left"),
                        [len(seg)]]).astype(np.int64)
        for seg in segments
    ]
    out = np.empty(total, dtype=segments[0].dtype)
    offset = 0
    for task in range(len(omega) + 1):
        lists = [seg[b[task]: b[task + 1]] for seg, b in zip(segments, bounds)]
        task_total = sum(len(lst) for lst in lists)
        platform.pcie.explicit_copy(task_total * out.dtype.itemsize, to_device=True)
        _merge_subtask(platform, lists, out, offset, skip_reverse_search)
        platform.pcie.writeback(task_total * out.dtype.itemsize)
        offset += task_total
    return out


def _counted(ordered):
    return np.unique(ordered, return_counts=True)


def segments_by_sorting(platform, keys, segment_len):
    """``sort.segment_runs``: decode dictionary-encoded keys, sort every
    segment with :func:`device_sort_segments` and count its runs."""
    if isinstance(keys, groupby.Grouped):
        keys = keys.distinct[keys.index]
    return [_counted(seg) for seg in device_sort_segments(platform, keys, segment_len)]


def merged_by_scatter(platform, runs, p_size=sort.DEFAULT_P_SIZE,
                      skip_reverse_search=True):
    """``sort.merge_runs``: expand every segment's runs back to its sorted
    elements and :func:`multi_merge` them."""
    segments = [np.repeat(values, counts) for values, counts in runs]
    return _counted(multi_merge(platform, segments, p_size, skip_reverse_search))


def csr_by_lexsort(src, dst, num_vertices, labels=None, name="graph"):
    """``builders.from_edges`` after its input checks: dedup the packed
    ``(lo << 32) | hi`` keys by ``np.unique``, then sort all ``2m``
    adjacency slots by ``(head, tail)`` with one ``lexsort``.  Takes the
    int64 arrays the checks leave."""
    # Canonicalize each edge as (min, max), drop self loops, deduplicate.
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    if len(lo):
        keys = (lo << 32) | hi
        keys = np.unique(keys)
        lo = keys >> 32
        hi = keys & 0xFFFFFFFF
    edge_src, edge_dst = lo, hi
    num_edges = len(edge_src)

    # Symmetrize: each undirected edge contributes two adjacency slots that
    # share an edge id.
    heads = np.concatenate([edge_src, edge_dst])
    tails = np.concatenate([edge_dst, edge_src])
    slot_edge_ids = np.concatenate([np.arange(num_edges)] * 2).astype(np.int64)

    # Sort slots by (head, tail) to get sorted adjacency lists.
    order = np.lexsort((tails, heads))
    heads, tails, slot_edge_ids = heads[order], tails[order], slot_edge_ids[order]

    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(heads, minlength=num_vertices) if len(heads) else np.zeros(
        num_vertices, dtype=np.int64
    )
    offsets[1:] = np.cumsum(counts)

    return csr.CSRGraph(
        offsets=offsets,
        neighbors=tails,
        edge_ids=slot_edge_ids,
        edge_src=edge_src,
        edge_dst=edge_dst,
        labels=labels,
        name=name,
    )


@contextmanager
def straight_line():
    """Run the enclosed code on the straight-line stack: the eight twins
    above installed over their seams (the sort's two phases run on the
    sorted elements), and the four size thresholds dropped to zero so
    ``has_edges`` binary-searches, ``PageBuffer`` evicts by ``lexsort``,
    ``dedup_embeddings`` keys by void rows and ``first_occurrence`` takes
    the stable sort — the fallbacks large inputs select, forced here on
    small ones.  (A graph that already built its bitset keeps it; use a
    fresh graph.  The quick-pattern twin replaces the whole grouping, its
    column ranker included, so the ranker's threshold stays.)"""
    patches = [
        (ExtensionEngine, "_prune_candidates", prune_by_mask_cascade),
        (ExtensionEngine, "_surviving_candidates", labelled_min_degree_walk),
        (extension, "_bound_ranges", bound_ranges_by_scan),
        (QuickPatternEncoder, "_group_quick", staticmethod(quick_groups_by_rows)),
        (aggregation, "pair_lookup_keep", pair_keep_by_sorting),
        (regions.ChargeBatch, "lookup", never_memoised),
        (sort, "segment_runs", segments_by_sorting),
        (sort, "merge_runs", merged_by_scatter),
        (csr, "_BITSET_MAX_BYTES", 0),
        (unified, "_PACKED_KEY_LIMIT", 0),
        (aggregation, "_PACK_BITS_LIMIT", 0),
        (groupby, "_TAG_BITS_LIMIT", 0),
    ]
    with ExitStack() as stack:
        for owner, name, value in patches:
            stack.enter_context(mock.patch.object(owner, name, value))
        yield


#: The two stacks a parametrized differential test runs, keyed by test id.
ARMS = {"fast": nullcontext, "reference": straight_line}
