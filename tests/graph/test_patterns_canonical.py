"""Tests for query patterns and canonical labeling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.errors import InvalidPatternError
from repro.graph import (
    Pattern,
    QuickPatternEncoder,
    canonical_code,
    canonical_code_int,
    clique,
    cycle,
    diamond,
    house,
    path,
    sm_query,
    tailed_triangle,
    triangle,
)
from tests.twins import first_appearance_relabel


class TestPattern:
    def test_triangle_shape(self):
        p = triangle()
        assert p.num_vertices == 3
        assert p.num_edges == 3
        assert not p.labeled

    def test_neighbors_and_degree(self):
        p = tailed_triangle()
        assert p.neighbors(2) == (0, 1, 3)
        assert p.degree(2) == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern([(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern([])

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern([(0, 1), (2, 3)])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(InvalidPatternError):
            Pattern([(0, 1)], labels=[1])

    def test_duplicate_edges_collapse(self):
        p = Pattern([(0, 1), (1, 0)])
        assert p.num_edges == 1

    def test_matching_order_connected(self):
        for p in (triangle(), diamond(), house(), cycle(5), path(4)):
            order = p.matching_order()
            assert sorted(order) == list(range(p.num_vertices))
            placed = {order[0]}
            for v in order[1:]:
                assert set(p.neighbors(v)) & placed
                placed.add(v)

    def test_matching_order_starts_high_degree(self):
        p = tailed_triangle()
        assert p.matching_order()[0] == 2  # the degree-3 vertex

    def test_edge_order_connected(self):
        for p in (triangle(), diamond(), house(), cycle(6)):
            order = p.edge_order()
            assert sorted(order) == sorted(p.edges)
            covered = set(order[0])
            for e in order[1:]:
                assert covered & set(e)
                covered |= set(e)

    def test_automorphisms(self):
        assert triangle().automorphism_count() == 6
        assert cycle(4).automorphism_count() == 8
        assert clique(4).automorphism_count() == 24
        assert path(2).automorphism_count() == 2
        assert diamond().automorphism_count() == 4

    def test_labels_break_automorphisms(self):
        assert sm_query(1).automorphism_count() == 1  # labels 0,1,2 distinct
        # q3's two label-1 degree-3 vertices can swap.
        assert sm_query(3).automorphism_count() == 2

    def test_as_arrays(self):
        src, dst, labels = sm_query(1).as_arrays()
        assert len(src) == 3
        assert labels.tolist() == [0, 1, 2]

    def test_sm_query_invalid(self):
        with pytest.raises(InvalidPatternError):
            sm_query(7)

    def test_sm_queries_q4_q6_are_labeled_and_connected(self):
        for which in (4, 5, 6):
            q = sm_query(which)
            assert q.labeled
            # The selective label (7) sits on a low-degree vertex, so the
            # label-blind hand order must start elsewhere.
            rare = [v for v in range(q.num_vertices) if q.label(v) == 7]
            assert len(rare) == 1
            assert q.matching_order()[0] != rare[0]

    def test_standard_pattern_sizes(self):
        assert path(3).num_edges == 3
        assert cycle(5).num_edges == 5
        assert clique(5).num_edges == 10
        assert diamond().num_edges == 5
        assert house().num_edges == 6


class TestCanonicalCode:
    def test_isomorphic_relabelings_equal(self):
        base = [(0, 1), (1, 2), (0, 2), (2, 3)]
        labels = [1, 1, 2, 3]
        reference = canonical_code(base, labels)
        for perm in itertools.permutations(range(4)):
            edges = [(perm[u], perm[v]) for u, v in base]
            plabels = [0] * 4
            for v in range(4):
                plabels[perm[v]] = labels[v]
            assert canonical_code(edges, plabels) == reference

    def test_different_structures_differ(self):
        tri = canonical_code([(0, 1), (1, 2), (0, 2)], [0, 0, 0])
        wedge = canonical_code([(0, 1), (1, 2)], [0, 0, 0])
        assert tri != wedge

    def test_labels_distinguish(self):
        a = canonical_code([(0, 1)], [0, 0])
        b = canonical_code([(0, 1)], [0, 1])
        assert a != b

    def test_int_code_stable(self):
        edges, labels = [(0, 1), (1, 2)], [1, 0, 1]
        assert canonical_code_int(edges, labels) == canonical_code_int(edges, labels)

    def test_too_many_vertices_rejected(self):
        edges = [(i, i + 1) for i in range(9)]
        with pytest.raises(InvalidPatternError):
            canonical_code(edges, [0] * 10)


class TestFirstAppearanceRelabel:
    def test_simple(self):
        seq = np.array([[7, 3, 7, 9]])
        ids, fresh = first_appearance_relabel(seq)
        assert ids.tolist() == [[0, 1, 0, 2]]
        assert fresh.tolist() == [[True, True, False, True]]

    def test_all_same(self):
        ids, fresh = first_appearance_relabel(np.array([[5, 5, 5]]))
        assert ids.tolist() == [[0, 0, 0]]
        assert fresh.tolist() == [[True, False, False]]

    def test_rows_independent(self):
        seq = np.array([[1, 2], [2, 2]])
        ids, __ = first_appearance_relabel(seq)
        assert ids.tolist() == [[0, 1], [0, 0]]

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            first_appearance_relabel(np.array([1, 2, 3]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dtype_and_layout_contract(self, order):
        """``uint8`` ids, ``bool`` fresh, both ``(n, m)`` with contiguous
        columns, whatever the layout of the input."""
        seq = np.array([[7, 3, 7, 9], [1, 1, 2, 1], [4, 5, 6, 7]], order=order)
        ids, fresh = first_appearance_relabel(seq)
        assert ids.dtype == np.uint8 and fresh.dtype == np.bool_
        assert ids.shape == fresh.shape == seq.shape
        assert all(ids[:, j].flags.c_contiguous and fresh[:, j].flags.c_contiguous
                   for j in range(seq.shape[1]))
        assert ids.tolist() == [[0, 1, 0, 2], [0, 0, 1, 0], [0, 1, 2, 3]]
        assert fresh.tolist() == [[True, True, False, True],
                                  [True, False, True, False],
                                  [True, True, True, True]]

    def test_width_limit_both_sides(self):
        """256 distinct values per row still fit ``uint8`` ids; 257 columns
        are rejected rather than wrapped."""
        ids, fresh = first_appearance_relabel(np.arange(256)[None, :] * 3)
        assert ids[0].tolist() == list(range(256)) and fresh.all()
        with pytest.raises(ValueError):
            first_appearance_relabel(np.zeros((2, 257), dtype=np.int64))

    def test_empty_shapes(self):
        for shape in [(0, 4), (3, 0), (3, 1)]:
            ids, fresh = first_appearance_relabel(np.zeros(shape, dtype=np.int64))
            assert ids.shape == fresh.shape == shape
            assert not ids.any() and fresh.all()

    @given(
        hst.lists(
            hst.lists(hst.integers(min_value=0, max_value=9), min_size=6,
                      max_size=6),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, rows):
        seq = np.array(rows)
        ids, fresh = first_appearance_relabel(seq)
        for r, row in enumerate(rows):
            mapping = {}
            for j, v in enumerate(row):
                if v not in mapping:
                    mapping[v] = len(mapping)
                    assert fresh[r, j]
                else:
                    assert not fresh[r, j]
                assert ids[r, j] == mapping[v]


class TestQuickPatternEncoder:
    def test_isomorphic_embeddings_same_code(self):
        # Triangle (10, 11, 12) listed with edges in two different orders.
        labels = np.zeros(20, dtype=np.int64)
        enc = QuickPatternEncoder()
        codes = enc.encode_edge_embeddings(
            np.array([[10, 11, 10], [11, 12, 11]]),
            np.array([[11, 12, 12], [12, 10, 10]]),
            labels,
        )
        assert codes[0] == codes[1]

    def test_label_sensitivity(self):
        labels = np.array([0, 1, 0, 0], dtype=np.int64)
        enc = QuickPatternEncoder()
        codes = enc.encode_edge_embeddings(
            np.array([[0], [2]]), np.array([[1], [3]]), labels
        )
        assert codes[0] != codes[1]  # edge 0-1 has labels (0,1); 2-3 (0,0)

    def test_cache_grows_once_per_quick_pattern(self):
        labels = np.zeros(10, dtype=np.int64)
        enc = QuickPatternEncoder()
        enc.encode_edge_embeddings(np.array([[0]]), np.array([[1]]), labels)
        first = enc.cache_size
        enc.encode_edge_embeddings(np.array([[3]]), np.array([[4]]), labels)
        assert enc.cache_size == first  # same quick pattern, cached

    def test_empty_batch(self):
        enc = QuickPatternEncoder()
        out = enc.encode_edge_embeddings(
            np.empty((0, 2), dtype=np.int64),
            np.empty((0, 2), dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        )
        assert len(out) == 0

    def test_agreement_with_exact_canonicalization(self):
        """Every embedding's quick->canonical code equals canonicalizing its
        edge set directly."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 30)
        enc = QuickPatternEncoder()
        # wedges u-v-w as 2-edge embeddings
        srcs, dsts = [], []
        cases = []
        for u, v, w in [(0, 1, 2), (5, 6, 7), (10, 11, 10)][:2] + [(3, 4, 5)]:
            srcs.append([u, v])
            dsts.append([v, w])
            cases.append(((u, v, w)))
        codes = enc.encode_edge_embeddings(
            np.array(srcs), np.array(dsts), labels
        )
        for code, (u, v, w) in zip(codes, cases):
            edges = [(0, 1), (1, 2)]
            lab = [int(labels[u]), int(labels[v]), int(labels[w])]
            assert code == canonical_code_int(edges, lab)

    def test_negative_label_rejected(self):
        """A negative label's sign bits used to flood the label word, so
        the two orientations of one edge got different canonical codes."""
        labels = np.array([-1, 3, 5, 3], dtype=np.int64)
        enc = QuickPatternEncoder()
        with pytest.raises(InvalidPatternError):
            enc.encode_edge_embeddings(
                np.array([[0], [1]]), np.array([[1], [0]]), labels)
        # Only labels the batch actually reads are checked.
        codes = enc.encode_edge_embeddings(
            np.array([[1], [2]]), np.array([[2], [1]]), labels)
        assert codes[0] == codes[1]

    def test_label_limit_both_sides(self):
        enc = QuickPatternEncoder()
        srcs, dsts = np.array([[0], [1]]), np.array([[1], [0]])
        codes = enc.encode_edge_embeddings(
            srcs, dsts, np.array([255, 0], dtype=np.int64))
        assert codes[0] == codes[1] == canonical_code_int([(0, 1)], [255, 0])
        with pytest.raises(InvalidPatternError):
            enc.encode_edge_embeddings(
                srcs, dsts, np.array([256, 0], dtype=np.int64))

    def test_vertex_and_edge_limits(self):
        enc = QuickPatternEncoder()
        labels = np.zeros(20, dtype=np.int64)
        # 4 disjoint edges = 8 vertices: the most a quick pattern holds.
        srcs = np.arange(0, 8, 2)[None, :]
        assert len(enc.encode_edge_embeddings(srcs, srcs + 1, labels)) == 1
        srcs = np.arange(0, 10, 2)[None, :]
        with pytest.raises(InvalidPatternError):
            enc.encode_edge_embeddings(srcs, srcs + 1, labels)
        with pytest.raises(InvalidPatternError):
            enc.encode_edge_embeddings(
                np.zeros((1, 8), dtype=np.int64),
                np.ones((1, 8), dtype=np.int64), labels)

    def test_zero_edges_rejected(self):
        """Rows without an edge are no embedding: ``InvalidPatternError``
        (it was a bare ``ValueError`` from a reduction over zero labels);
        an empty batch of them still encodes to nothing."""
        enc = QuickPatternEncoder()
        labels = np.zeros(4, dtype=np.int64)
        with pytest.raises(InvalidPatternError):
            enc.encode_edge_embeddings(
                np.empty((3, 0), dtype=np.int64),
                np.empty((3, 0), dtype=np.int64), labels)
        out = enc.encode_edge_embeddings(
            np.empty((0, 0), dtype=np.int64),
            np.empty((0, 0), dtype=np.int64), labels)
        assert len(out) == 0

    def test_shape_mismatch_rejected(self):
        enc = QuickPatternEncoder()
        with pytest.raises(ValueError):
            enc.encode_edge_embeddings(
                np.zeros((2, 1), dtype=np.int64),
                np.zeros((1, 1), dtype=np.int64),
                np.zeros(4, dtype=np.int64),
            )
