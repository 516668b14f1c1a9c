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
from repro.gpusim import regions, unified
from repro.graph import csr, groupby
from repro.graph.canonical import QuickPatternEncoder

# ``repro.core.aggregation`` the attribute is the re-exported function.
aggregation = import_module("repro.core.aggregation")


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
                             less_than_cols, label, carried):
    """``ExtensionEngine._surviving_candidates``: per row, expand the whole
    of the shortest anchor list, verify the others, filter by id ordering
    afterwards, and probe each source part's survivors through
    ``labels_of`` (which bills them) — the per-row algorithm the cost
    model was written against, with no prefix sharing between sibling
    rows, no ordering bounds on what is expanded, nothing read from the
    ``carried`` column and nothing left on the next."""
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
    if not cands:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), None
    cand, cand_row = np.concatenate(cands), np.concatenate(cand_rows)
    order = np.argsort(cand_row, kind="stable")
    return cand[order], cand_row[order], None


def unique_quick_rows(qa, qb, bits_a=None, bits_b=None):
    """``QuickPatternEncoder._unique_quick``: ``np.unique`` over the
    stacked ``(qa, qb)`` rows, whatever their widths (the shipped code
    folds narrow pairs into one word and lexsorts wide ones)."""
    return np.unique(np.stack([qa, qb], axis=1), axis=0, return_inverse=True)


def never_memoised(batch, starts, ends, token=0):
    """``ChargeBatch.lookup``: every charge re-derives its pages."""
    return None


@contextmanager
def straight_line():
    """Run the enclosed code on the straight-line stack: the five twins
    above installed over their seams, and the four size thresholds
    dropped to zero so ``has_edges`` binary-searches, ``PageBuffer``
    evicts by ``lexsort``, ``dedup_embeddings`` keys by void rows and
    ``first_occurrence`` takes the stable sort — the fallbacks large
    inputs select, forced here on small ones.  (A graph that already
    built its bitset keeps it; use a fresh graph.)"""
    patches = [
        (ExtensionEngine, "_prune_candidates", prune_by_mask_cascade),
        (ExtensionEngine, "_surviving_candidates", labelled_min_degree_walk),
        (extension, "_bound_ranges", bound_ranges_by_scan),
        (QuickPatternEncoder, "_unique_quick", staticmethod(unique_quick_rows)),
        (regions.ChargeBatch, "lookup", never_memoised),
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
