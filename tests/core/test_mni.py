"""Tests for MNI (minimum-image-based) support."""

import itertools
from unittest import mock

import numpy as np
import pytest

from repro.algorithms import frequent_pattern_mining
from repro.core import Gamma, mni_supports
from repro.graph import QuickPatternEncoder, from_edge_list, kronecker, star


class TestMniSupports:
    def test_direct_computation(self):
        # two patterns; pattern A has rows mapping positions to vertices
        codes = np.array([1, 1, 1, 2])
        positions = np.array([
            [10, 20, -1],
            [10, 21, -1],
            [11, 20, -1],
            [30, 31, 32],
        ])
        uniq, mni = mni_supports(codes, positions)
        assert uniq.tolist() == [1, 2]
        # pattern 1: position 0 has {10, 11}=2, position 1 has {20, 21}=2
        assert mni.tolist() == [2, 1]

    def test_pair_fold_threshold_both_sides(self):
        """``patterns * (max vertex + 1)`` within int64 folds each (pattern,
        vertex) pair into one word; past it the stacked-pair unique runs.
        Same supports either way."""
        codes = np.array([5, 5, 5, 9, 9])
        small = np.array([[1, 2], [1, 3], [4, 2], [7, 7], [7, 8]])
        huge = np.where(small == 7, 2**62, small)  # 2 patterns * 2**62 overflows
        for positions, folds in [(small, True), (huge, False)]:
            with mock.patch.object(np, "stack", wraps=np.stack) as stacked:
                uniq, mni = mni_supports(codes, positions)
            assert (stacked.call_count == 0) == folds
            assert uniq.tolist() == [5, 9]
            assert mni.tolist() == [2, 1]

    def test_empty(self):
        uniq, mni = mni_supports(
            np.empty(0, dtype=np.int64), np.empty((0, 4), dtype=np.int64)
        )
        assert len(uniq) == 0
        assert len(mni) == 0

    def test_mni_bounded_by_instances(self):
        """MNI <= instance count always (each instance contributes at most
        one new vertex per position)."""
        g = kronecker(7, 5, seed=6, labels=3)
        with Gamma(g) as a:
            inst = frequent_pattern_mining(a, 2, 1).patterns
        with Gamma(g) as b:
            mni = frequent_pattern_mining(b, 2, 1, support_metric="mni").patterns
        assert set(mni) == set(inst)
        for code, support in mni.items():
            assert support <= inst[code]


class TestEncoderPositions:
    def test_positions_cover_embedding_vertices(self):
        labels = np.zeros(10, dtype=np.int64)
        enc = QuickPatternEncoder()
        codes, positions = enc.encode_edge_embeddings(
            np.array([[2, 3]]), np.array([[3, 4]]), labels,
            return_positions=True,
        )
        row = positions[0]
        assert set(row[row >= 0].tolist()) == {2, 3, 4}
        assert (row[3:] == -1).all()

    def test_positions_consistent_across_isomorphic_rows(self):
        """Two isomorphic embeddings map to the same canonical positions:
        structurally equivalent vertices land in the same columns."""
        labels = np.zeros(10, dtype=np.int64)
        enc = QuickPatternEncoder()
        # wedges centered at 1 and at 5
        codes, positions = enc.encode_edge_embeddings(
            np.array([[0, 1], [4, 5]]),
            np.array([[1, 2], [5, 6]]),
            labels,
            return_positions=True,
        )
        assert codes[0] == codes[1]
        # The degree-2 center occupies the same canonical position in both.
        center_pos_0 = positions[0].tolist().index(1)
        center_pos_1 = positions[1].tolist().index(5)
        assert center_pos_0 == center_pos_1


class TestMniSemantics:
    def test_star_wedge_mni(self):
        """In a star with n leaves: wedge instances C(n,2) but MNI is
        limited by the single center."""
        n = 6
        with Gamma(star(n)) as engine:
            inst = frequent_pattern_mining(engine, 2, 1).patterns
        with Gamma(star(n)) as engine:
            mni = frequent_pattern_mining(
                engine, 2, 1, support_metric="mni"
            ).patterns
        (wedge_code,) = [c for c, s in inst.items() if s == n * (n - 1) // 2]
        # one center vertex -> MNI = 1
        assert mni[wedge_code] == 1

    def test_mni_matches_brute_force(self):
        """Cross-check MNI against a direct enumeration oracle."""
        g = from_edge_list(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
        )
        with Gamma(g) as engine:
            level1 = frequent_pattern_mining(
                engine, 1, 1, support_metric="mni"
            ).patterns
        with Gamma(g) as engine:
            mni = frequent_pattern_mining(
                engine, 2, 1, support_metric="mni"
            ).patterns
        # brute force: all wedges (a-b-c with a<c), MNI over positions
        centers, ends = set(), set()
        for b in range(g.num_vertices):
            nbrs = g.neighbors_of(b).tolist()
            for a, c in itertools.combinations(nbrs, 2):
                centers.add(b)
                ends.update((a, c))
        (wedge_code,) = set(mni) - set(level1)
        assert 1 <= mni[wedge_code] <= min(len(centers), len(ends))

    def test_invalid_metric_rejected(self):
        g = star(4)
        with Gamma(g) as engine:
            table = engine.new_edge_table()
            engine.seed_edges(table)
            from repro.core import PatternTable

            with pytest.raises(ValueError):
                engine.aggregation(
                    table, PatternTable(), support_metric="median"
                )
