"""Equivalence of quick-pattern canonicalization and its straight-line twin.

``QuickPatternEncoder._canonicalize`` groups (qa, qb) quick-key pairs
on one folded word when both fit 63 bits (k <= 3 connected edges) and
with a two-key lexsort and lead flags otherwise; the twin in
:mod:`tests.twins` uses ``np.unique(axis=0)``.  All three enumerate
uniques in the same lexicographic order, so codes, placements, and
inverse maps — and therefore every aggregation histogram — must be
bit-identical.
"""

from unittest import mock

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.graph import canonical
from repro.graph.canonical import QuickPatternEncoder
from repro.graph.generators import erdos_renyi, zipf_labels
from tests.twins import ARMS

FAST, REFERENCE = ARMS["fast"], ARMS["reference"]


def _encode_in(stack, srcs, dsts, labels, return_positions=False):
    with stack():
        encoder = QuickPatternEncoder()
        out = encoder.encode_edge_embeddings(
            srcs, dsts, labels, return_positions=return_positions)
    if return_positions:
        return out[0].tolist(), out[1].tolist()
    return out.tolist()


@settings(max_examples=50, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**31 - 1),
    n=hst.integers(min_value=0, max_value=200),
    width=hst.integers(min_value=1, max_value=4),
    num_labels=hst.sampled_from([1, 3, 8]),
)
def test_canonicalize_fast_matches_reference(seed, n, width, num_labels):
    rng = np.random.default_rng(seed)
    num_vertices = 30
    srcs = rng.integers(0, num_vertices, size=(n, width), dtype=np.int64)
    dsts = rng.integers(0, num_vertices, size=(n, width), dtype=np.int64)
    labels = rng.integers(0, num_labels, size=num_vertices, dtype=np.int64)
    fast = _encode_in(FAST, srcs, dsts, labels)
    ref = _encode_in(REFERENCE, srcs, dsts, labels)
    assert fast == ref


def test_canonicalize_positions_fast_matches_reference():
    graph = erdos_renyi(40, 160, seed=11)
    labels = zipf_labels(40, 4, seed=3)
    rng = np.random.default_rng(5)
    rows = rng.integers(0, graph.num_edges, size=(300, 2), dtype=np.int64)
    srcs = graph.edge_src[rows]
    dsts = graph.edge_dst[rows]
    fast = _encode_in(FAST, srcs, dsts, labels, return_positions=True)
    ref = _encode_in(REFERENCE, srcs, dsts, labels,
                     return_positions=True)
    assert fast == ref


def _connected_embeddings(k, rows=400, seed=9):
    """``rows`` connected ``k``-edge walks (k + 1 vertices at most)."""
    graph = erdos_renyi(40, 160, seed=11)
    rng = np.random.default_rng(seed)
    walk = [rng.integers(0, graph.num_vertices, size=rows)]
    for __ in range(k):
        degree = graph.offsets[walk[-1] + 1] - graph.offsets[walk[-1]]
        pick = graph.offsets[walk[-1]] + rng.integers(0, 1 << 30, size=rows) % np.maximum(degree, 1)
        walk.append(np.where(degree > 0, graph.neighbors[pick], walk[-1]))
    walk = np.stack(walk, axis=1)
    return walk[:, :-1], walk[:, 1:]


@pytest.mark.parametrize("k,folds", [(1, True), (3, True), (4, False)])
def test_fold_threshold_both_sides(k, folds):
    """k = 3 edges on 4 vertices is 56 bits and groups on one word; k = 4
    on 5 vertices is 72 and takes the lexsort.  Codes and MNI positions
    match the ``np.unique(axis=0)`` twin on both sides."""
    srcs, dsts = _connected_embeddings(k)
    labels = zipf_labels(40, 4, seed=3)
    with mock.patch.object(canonical, "group_by",
                           wraps=canonical.group_by) as folded, \
            mock.patch.object(canonical.np, "lexsort",
                              wraps=np.lexsort) as wide:
        fast = _encode_in(FAST, srcs, dsts, labels, return_positions=True)
    assert (folded.call_count, wide.call_count) == ((1, 0) if folds else (0, 1))
    assert fast == _encode_in(REFERENCE, srcs, dsts, labels,
                              return_positions=True)


def test_disconnected_rows_widen_the_label_word():
    """Three disjoint edges are 6 vertices: 24 + 48 bits do not fold even
    though k = 3 does for connected rows — the gate reads the batch."""
    srcs = np.array([[0, 2, 4], [1, 3, 5]], dtype=np.int64)
    dsts = srcs + 10
    labels = np.arange(20, dtype=np.int64) % 3
    with mock.patch.object(canonical, "group_by", side_effect=AssertionError):
        fast = _encode_in(FAST, srcs, dsts, labels, return_positions=True)
    assert fast == _encode_in(REFERENCE, srcs, dsts, labels,
                              return_positions=True)


def test_canonicalize_isomorphic_rows_share_codes_in_both_modes():
    # Two triangles listed in different edge orders are the same pattern.
    srcs = np.array([[0, 1, 2], [4, 3, 5]], dtype=np.int64)
    dsts = np.array([[1, 2, 0], [5, 4, 3]], dtype=np.int64)
    labels = np.zeros(6, dtype=np.int64)
    for mode in (FAST, REFERENCE):
        codes = _encode_in(mode, srcs, dsts, labels)
        assert codes[0] == codes[1]
