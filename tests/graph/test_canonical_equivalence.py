"""Equivalence of quick-pattern canonicalization and its straight-line twin.

``QuickPatternEncoder._canonicalize`` groups (qa, qb) quick-key pairs
with a two-key lexsort and lead flags; the twin in :mod:`tests.twins`
uses ``np.unique(axis=0)``.  Both enumerate uniques in the same
lexicographic order, so codes, placements, and inverse maps — and
therefore every aggregation histogram — must be bit-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

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


def test_canonicalize_isomorphic_rows_share_codes_in_both_modes():
    # Two triangles listed in different edge orders are the same pattern.
    srcs = np.array([[0, 1, 2], [4, 3, 5]], dtype=np.int64)
    dsts = np.array([[1, 2, 0], [5, 4, 3]], dtype=np.int64)
    labels = np.zeros(6, dtype=np.int64)
    for mode in (FAST, REFERENCE):
        codes = _encode_in(mode, srcs, dsts, labels)
        assert codes[0] == codes[1]
