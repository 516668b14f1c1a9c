"""Equivalence of the fused extension hot path and its straight-line twins.

The progressive (compress-as-you-filter) candidate pruning, the prefix
intersection shared by sibling rows, the adjacency hub rows, and the batched
charging underneath must leave no observable trace:
identical embeddings, identical simulated clock buckets, identical counters
— bit-for-bit — against the straight-line twins in :mod:`tests.twins`,
across write strategies, pre-merge on/off, and constraint combinations.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core import (
    EDGE,
    VERTEX,
    EmbeddingTable,
    ExtensionEngine,
    GammaResidence,
    MemoryPool,
    make_write_strategy,
)
from repro.core import extension
from repro.core.embedding_table import SpilledColumn
from repro.errors import ExecutionError
from repro.graph import from_edge_list
from repro.graph.generators import erdos_renyi, kronecker, zipf_labels
from tests.oracle import vertex_walk_rows_ref
from tests.twins import ARMS, straight_line


@hst.composite
def extension_scenarios(draw):
    seed = draw(hst.integers(min_value=0, max_value=2**31 - 1))
    num_vertices = draw(hst.integers(min_value=4, max_value=40))
    num_edges = draw(hst.integers(min_value=3, max_value=120))
    strategy = draw(hst.sampled_from(["dynamic", "two_pass", "prealloc"]))
    pre_merge = draw(hst.booleans())
    steps = draw(hst.integers(min_value=1, max_value=3))
    label = draw(hst.sampled_from([None, 0, 1]))
    use_gt = draw(hst.booleans())
    injective = draw(hst.booleans())
    return (seed, num_vertices, num_edges, strategy, pre_merge, steps,
            label, use_gt, injective)


def _build_engine(graph, strategy, pre_merge):
    from repro.gpusim import make_platform

    platform = make_platform()
    residence = GammaResidence(platform, graph, buffer_pages=8)
    pool = MemoryPool(platform, 1 << 20)
    ws = make_write_strategy(strategy, platform, pool)
    engine = ExtensionEngine(platform, residence, ws, pre_merge=pre_merge)
    return platform, engine


def _run_vertex_walk(graph, strategy, pre_merge, steps, label, use_gt,
                     injective):
    platform, engine = _build_engine(graph, strategy, pre_merge)
    table = EmbeddingTable(platform, VERTEX)
    engine.seed_vertices(table)
    for depth in range(1, steps + 1):
        engine.extend_vertices(
            table,
            anchor_cols=list(range(depth)),
            label=label,
            greater_than_col=depth - 1 if use_gt else None,
            injective=injective,
        )
    rows = table.materialize()
    return rows, platform.clock.snapshot(), platform.counters.snapshot()


def _run_edge_walk(graph, strategy, pre_merge, steps):
    platform, engine = _build_engine(graph, strategy, pre_merge)
    table = EmbeddingTable(platform, EDGE)
    engine.seed_edges(table)
    for __ in range(steps):
        engine.extend_edges(table)
    rows = table.materialize()
    return rows, platform.clock.snapshot(), platform.counters.snapshot()


def _graph_for(seed, num_vertices, num_edges):
    graph = erdos_renyi(num_vertices, num_edges, seed=seed)
    return type(graph)(
        graph.offsets,
        graph.neighbors,
        graph.edge_ids,
        graph.edge_src,
        graph.edge_dst,
        labels=zipf_labels(graph.num_vertices, 3, seed=seed),
        name="equiv",
    )


class TestVertexExtensionEquivalence:
    @given(extension_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_identical_rows_clock_counters(self, scenario):
        (seed, nv, ne, strategy, pre_merge, steps, label, use_gt,
         injective) = scenario
        graph = _graph_for(seed, nv, ne)
        fast = _run_vertex_walk(
            graph, strategy, pre_merge, steps, label, use_gt, injective
        )
        # The hub rows are lazily cached on the graph; a fresh graph keeps
        # the straight-line run on the binary search.
        ref_graph = _graph_for(seed, nv, ne)
        with straight_line():
            ref = _run_vertex_walk(
                ref_graph, strategy, pre_merge, steps, label, use_gt,
                injective,
            )
        np.testing.assert_array_equal(fast[0], ref[0])
        assert fast[1] == ref[1]  # clock buckets, bit-for-bit
        assert fast[2] == ref[2]  # counters


@hst.composite
def anchored_walks(draw):
    """Walks whose steps anchor on any column subset, so every shape of the
    shared-prefix computation occurs: tail not an anchor, two prefix
    anchors under an anchored tail, one list only; ordering constraints on
    prefix columns and on the tail; chunks small enough to split groups."""
    seed = draw(hst.integers(min_value=0, max_value=2**31 - 1))
    num_vertices = draw(hst.integers(min_value=4, max_value=24))
    num_edges = draw(hst.integers(min_value=3, max_value=100))
    steps = []
    for depth in range(1, draw(hst.integers(min_value=2, max_value=3)) + 1):
        cols = hst.integers(min_value=0, max_value=depth - 1)
        steps.append((
            sorted(draw(hst.sets(cols, min_size=1))),
            sorted(draw(hst.sets(cols, max_size=2))),
            sorted(draw(hst.sets(cols, max_size=1))),
        ))
    return {
        "graph": (seed, num_vertices, num_edges),
        "steps": steps,
        "strategy": draw(hst.sampled_from(["dynamic", "two_pass", "prealloc"])),
        "pre_merge": draw(hst.booleans()),
        "chunk_rows": draw(hst.sampled_from([None, 1, 2, 3, 7])),
        "label": draw(hst.sampled_from([None, 0, 1])),
        "injective": draw(hst.booleans()),
    }


def _run_anchored_walk(graph, walk):
    platform, engine = _build_engine(graph, walk["strategy"], walk["pre_merge"])
    engine.chunk_rows = walk["chunk_rows"]
    table = EmbeddingTable(platform, VERTEX)
    engine.seed_vertices(table)
    extend = (engine.extend_vertices_any if walk.get("union")
              else engine.extend_vertices)
    for anchors, greater, less, *own in walk["steps"]:
        extend(
            table, anchors, label=own[0] if own else walk["label"],
            greater_than_cols=greater, less_than_cols=less,
            injective=walk["injective"],
        )
    rows = table.materialize()
    return rows, platform.clock.snapshot(), platform.counters.snapshot()


def _assert_walk_equivalent(make_graph, walk):
    """The walk as shipped, under the straight-line twins and by the
    oracle's recount: same rows, clock buckets bit for bit, counters.
    (The union extension emits a row's vertices in anchor order, the
    oracle ascending, so union rows are compared sorted.)"""
    fast = _run_anchored_walk(make_graph(), walk)
    with straight_line():
        ref = _run_anchored_walk(make_graph(), walk)
    np.testing.assert_array_equal(fast[0], ref[0])
    assert fast[1] == ref[1]  # clock buckets, bit-for-bit
    assert fast[2] == ref[2]  # counters
    union = bool(walk.get("union"))
    expected = vertex_walk_rows_ref(
        make_graph(), walk["steps"], walk["label"], walk["injective"],
        adjacent=any if union else all,
    )
    got = [tuple(row) for row in fast[0].tolist()]
    assert (sorted(got) if union else got) == expected


def _edge_case_graph():
    """12 vertices where a bound meets a sorted list every way it can:
    hubs at ids 0 and V-1 (a bound below / above every neighbor), two
    cliques sharing the top hub (bounds present in the list), sparse
    cross edges (bounds absent from it), a vertex, 10, with fewer
    neighbors than the hubs have in common (phase 2 expands ``N(tail)``)
    and an isolated one, 5."""
    edges = list(combinations([0, 2, 4, 6, 11], 2))
    edges += combinations([1, 3, 7, 9, 11], 2)
    edges += [(0, 1), (0, 3), (0, 10), (4, 8), (6, 8), (7, 8), (8, 10),
              (10, 11)]
    return from_edge_list(edges, num_vertices=12,
                          labels=zipf_labels(12, 3, seed=1), name="edges")


#: name -> steps, each ``(anchor_cols, greater_than_cols, less_than_cols)``
#: or, to ask for its own label whatever the walk's, the same plus a label.
EDGE_WALKS = {
    # kCL's shape: ordering on the tail, so phase 2 bounds L_m and N(tail).
    "ascending-clique": [([0], [0], []), ([0, 1], [1], []), ([0, 1, 2], [2], [])],
    "descending-clique": [([0], [], [0]), ([0, 1], [], [1]), ([0, 1, 2], [], [2])],
    # Ordering on prefix columns only: phase 1 bounds, phase 2 does not;
    # rows with row[0] > row[1] have crossed bounds.
    "prefix-window": [([0], [], []), ([0, 1], [], []), ([0, 1, 2], [0], [1])],
    # Two greater-than columns (the larger wins), one prefix, one tail.
    "two-greater": [([0], [], []), ([0, 1], [0, 1], []), ([0, 1, 2], [0, 2], [])],
    # Tail not an anchor: L_m is the only phase-2 source, bounded by a
    # tail that need not be in it.
    "unanchored-tail": [([0], [], []), ([0], [1], []), ([0, 1], [2], [0])],
    # One list only, bounded by columns it is not adjacent to.
    "single-list": [([0], [], []), ([1], [], []), ([2], [0], [1])],
    "tail-window": [([0], [], []), ([0, 1], [0], []), ([0, 1, 2], [1], [2])],
    # Tail neither an anchor nor ordered: each row's slice is its group's
    # whole L_m, around the row's own tail vertex when that is in it (one
    # prefix anchor: always; two: only if the tail neighbors both).
    "tail-free-hole": [([0], [], []), ([0], [], []), ([0, 1], [], [])],
    # The same with a label per step, so a tail inside L_m carries another
    # label than the one asked for: billed, then dropped with its label.
    "tail-free-relabelled": [([0], [], [], 0), ([0], [], [], 2),
                             ([0, 1], [], [], 0)],
    # A label no vertex carries, asked for where rows exist: probes are
    # billed, nothing comes out.
    "tail-free-absent-label": [([0], [], [], None), ([0], [], [], 9)],
    # Both orderings against the unanchored tail: every slice is crossed.
    "tail-free-crossed": [([0], [], []), ([0], [], []), ([0, 1], [2], [2])],
    # Level to level.  kCL-5: two levels in a row find their L_m on the
    # column before, as the sibling values above the tail (the lists are
    # stricter than L_m by the ordering the tail's own ordering implies).
    "five-clique": [([0], [0], []), ([0, 1], [1], []), ([0, 1, 2], [2], []),
                    ([0, 1, 2, 3], [3], [])],
    # SM(q3): the last level's L_m is what the level before found *before*
    # its label filter (vertices 1 and 3 carry the label asked for last and
    # not the one asked for in between), with and without the restriction
    # symmetry breaking puts on the first level.
    "q3-shape": [([0], [], [], 0), ([0, 1], [], [], 0), ([0, 1], [], [], 2)],
    "q3-shape-symmetry-broken": [([0], [0], [], 0), ([0, 1], [], [], 0),
                                 ([0, 1], [], [], 2)],
    # ... and the last column answering another question than the one asked:
    # other anchors than the prefix,
    "other-anchors": [([0], [], []), ([1], [], []), ([0, 1, 2], [2], [])],
    # a less-than the tail's greater-than does not imply,
    "unimplied-less": [([0], [], []), ([0, 1], [], [0]), ([0, 1, 2], [2], [])],
    # a constraint before the tail that the level before did not apply.
    "added-constraint": [([0], [], []), ([0, 1], [], []), ([0, 1, 2], [0, 2], [])],
}
#: What ``Survivors.answers`` says, level by level, at the levels that have
#: a shared prefix and so ask (the first never does: a seed column carries
#: no lists).  A second level whose one anchor is column 0 asks for N(v0),
#: which is the first level's column; "two-greater" is a hit because its
#: last level's tail ordering implies the greater-than it leaves out.
LOOKUPS = {
    "ascending-clique": [True], "descending-clique": [True],
    "five-clique": [True, True], "two-greater": [True],
    "q3-shape": [True], "q3-shape-symmetry-broken": [True],
    "tail-free-relabelled": [True], "tail-free-absent-label": [True],
    "unanchored-tail": [True, False], "tail-free-hole": [True, False],
    "tail-free-crossed": [True, False], "single-list": [],
    "prefix-window": [False], "tail-window": [False],
    "other-anchors": [False], "unimplied-less": [False],
    "added-constraint": [False],
}
#: The walks whose later steps leave the tail out of the anchors.
TAIL_FREE_WALKS = ["unanchored-tail"] + sorted(
    name for name in EDGE_WALKS if name.startswith("tail-free"))


def _edge_walk(name, chunk_rows=None, union=False, injective=True, label=None):
    return {"steps": EDGE_WALKS[name], "strategy": "dynamic",
            "pre_merge": True, "chunk_rows": chunk_rows, "label": label,
            "injective": injective, "union": union}


class TestSharedPrefixEquivalence:
    @given(anchored_walks())
    @settings(max_examples=60, deadline=None)
    def test_identical_rows_clock_counters_and_oracle_rows(self, walk):
        _assert_walk_equivalent(lambda: _graph_for(*walk["graph"]), walk)

    @pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("name", sorted(EDGE_WALKS))
    def test_bounds_at_their_edges(self, name, chunk_rows):
        _assert_walk_equivalent(_edge_case_graph, _edge_walk(name, chunk_rows))
        _assert_walk_equivalent(
            _edge_case_graph,
            _edge_walk(name, chunk_rows, injective=False, label=0),
        )

    @pytest.mark.parametrize("injective", [True, False])
    @pytest.mark.parametrize("label", [None, 0, 1, 2, 9])
    @pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3])
    @pytest.mark.parametrize("name", TAIL_FREE_WALKS)
    def test_tail_free_slices_at_their_edges(self, name, chunk_rows, label,
                                             injective):
        """The slicing branch against both references: every label of the
        hand graph and one it lacks, with and without the hole an injective
        tail leaves, in chunks small enough to split a group."""
        _assert_walk_equivalent(
            _edge_case_graph,
            _edge_walk(name, chunk_rows, injective=injective, label=label),
        )

    def test_edge_walks_reach_every_bound_position(self, monkeypatch):
        """What the two edge tests above claim to cover, checked: across
        the walks a bound is found in its list, falls between two entries,
        sits below every entry and above every entry; vertex ids 0 and V-1
        bound; two greater-than columns disagree; a window is crossed; an
        isolated vertex's empty list is bounded; and phase 2 expands both
        ``L_m`` and ``N(tail)`` under a tail bound.  Where the tail is not
        an anchor, a row's own tail vertex is the first entry of its
        ``L_m`` slice, the last, one between, absent, and present under
        another label than the one asked for; a group's ``L_m`` is empty;
        a slice is crossed; and what a slice expands to is never pruned."""
        graph = _edge_case_graph()
        top = graph.num_vertices - 1
        seen = set()
        asked = None  # the label of the step in progress
        sliced = False  # the last expansion was of L_m, not of a neighbor list
        bound_ranges = extension._bound_ranges
        expand_lists = extension._expand_lists
        prune = ExtensionEngine._prune_candidates
        surviving = ExtensionEngine._surviving_candidates

        def watch_bounds(keys, owners, starts, lengths, mats, rows, greater, less):
            for start, length, row in zip(starts.tolist(), lengths.tolist(),
                                          mats[rows].tolist()):
                values = (keys[start:start + length] & 0xFFFFFFFF).tolist()
                lows, highs = [row[c] for c in greater], [row[c] for c in less]
                seen.update(f"bound-{b}" for b in lows + highs if b in (0, top))
                if (lows or highs) and not values:
                    seen.add("empty-list")
                if len(set(lows)) > 1:
                    seen.add("two-greater-disagree")
                if lows and highs and max(lows) >= min(highs):
                    seen.add("crossed")
                for bound in lows + highs:
                    if bound in values:
                        seen.add("present")
                    elif values and bound < values[0]:
                        seen.add("below-all")
                    elif values and bound > values[-1]:
                        seen.add("above-all")
                    elif values:
                        seen.add("between")
                if tail_free and keys is not graph.adjacency_keys:
                    # A row's slice of its group's L_m.
                    hole = row[-1]
                    if not values:
                        seen.add("empty-lm")
                    elif lows and highs:
                        seen.add("crossed-slice")
                    elif lows or highs or hole not in values:
                        seen.add("hole-absent")
                    else:
                        where = ("first" if hole == values[0] else
                                 "last" if hole == values[-1] else "inside")
                        seen.add(f"hole-{where}")
                        if asked not in (None, int(graph.labels[hole])):
                            seen.add("hole-relabelled")
            return bound_ranges(keys, owners, starts, lengths, mats, rows,
                                greater, less)

        def watch_expand(values, starts, lengths, rows):
            nonlocal sliced
            sliced = values is not graph.neighbors
            return expand_lists(values, starts, lengths, rows)

        def watch_prune(self, cand, cand_row, mats, verify_cols, distinct_cols):
            if len(cand) and mats.shape[1] == 3:
                seen.add(f"verify-{list(verify_cols)}")
            if sliced and not verify_cols:
                seen.add("slice-pruned")
            return prune(self, cand, cand_row, mats, verify_cols, distinct_cols)

        def watch_surviving(self, mats, anchor_cols, anchor_deg, distinct_cols,
                            greater_than_cols, less_than_cols, label, carried,
                            count_only):
            nonlocal asked
            asked = label
            return surviving(self, mats, anchor_cols, anchor_deg, distinct_cols,
                             greater_than_cols, less_than_cols, label, carried,
                             count_only)

        monkeypatch.setattr(extension, "_bound_ranges", watch_bounds)
        monkeypatch.setattr(extension, "_expand_lists", watch_expand)
        monkeypatch.setattr(ExtensionEngine, "_prune_candidates", watch_prune)
        monkeypatch.setattr(
            ExtensionEngine, "_surviving_candidates", watch_surviving)
        for name in EDGE_WALKS:
            tail_free = name in TAIL_FREE_WALKS
            _run_anchored_walk(graph, _edge_walk(name))
        # At depth 3 with anchors [0, 1, 2], phase 2 verifies the tail on
        # an L_m candidate and the prefix on an N(tail) candidate.
        assert seen >= {
            "present", "between", "below-all", "above-all", "bound-0",
            f"bound-{top}", "two-greater-disagree", "crossed", "empty-list",
            "verify-[2]", "verify-[0, 1]",
            "hole-first", "hole-last", "hole-inside", "hole-absent",
            "hole-relabelled", "empty-lm", "crossed-slice",
        }
        assert "slice-pruned" not in seen

    def test_too_many_prefix_groups_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(extension, "_PACK_VERTEX_LIMIT", 2)
        with pytest.raises(ExecutionError, match="groups"):
            _run_anchored_walk(_edge_case_graph(), _edge_walk("ascending-clique"))

    @pytest.mark.parametrize("task", ["4-clique", "q3-symmetry-broken"])
    def test_ordering_bounds_expansion(self, task, monkeypatch):
        """The saving itself: an id-ordering narrows the slice of each
        sorted list that is expanded, so the shipped path expands
        strictly fewer elements than the expand-then-filter twin — for
        the same answer and the same simulated time, to the bit."""
        from repro.algorithms import count_kcliques, match_pattern
        from repro.core import Gamma
        from repro.graph import sm_query

        graph = kronecker(7, 6, seed=3, labels=3, label_seed=4)
        expanded = 0
        expand_lists = extension._expand_lists

        def counting(values, starts, lengths, rows):
            nonlocal expanded
            cand, cand_row = expand_lists(values, starts, lengths, rows)
            expanded += len(cand)
            return cand, cand_row

        monkeypatch.setattr(extension, "_expand_lists", counting)
        outcomes = []
        for stack in ARMS.values():  # as shipped, then the twins
            expanded = 0
            with stack(), Gamma(graph) as gamma:
                if task == "4-clique":
                    answer = count_kcliques(gamma, 4).cliques
                else:
                    answer = match_pattern(
                        gamma, sm_query(3), symmetry_breaking=True).embeddings
                outcomes.append(
                    (answer, float.hex(gamma.simulated_seconds), expanded))
        (fast_answer, fast_sim, fast_expanded), (answer, sim, twin) = outcomes
        assert answer > 0
        assert (fast_answer, fast_sim) == (answer, sim)
        assert fast_expanded < twin

    @pytest.mark.parametrize("task", ["q3", "4-clique"])
    def test_prefix_intersection_is_shared(self, task, monkeypatch):
        """The saving itself: sibling rows probe their common prefix once,
        so the shipped path makes strictly fewer ``has_edges`` probes than
        the per-row twin for the same answer."""
        from repro.algorithms import count_kcliques, match_pattern
        from repro.core import Gamma
        from repro.graph import sm_query
        from repro.graph.csr import CSRGraph

        graph = kronecker(7, 6, seed=3, labels=3, label_seed=4)
        probed = 0
        has_edges = CSRGraph.has_edges

        def counting(self, u, v):
            nonlocal probed
            probed += len(u)
            return has_edges(self, u, v)

        monkeypatch.setattr(CSRGraph, "has_edges", counting)
        outcomes = []
        for stack in ARMS.values():  # as shipped, then the twins
            probed = 0
            with stack(), Gamma(graph) as gamma:
                if task == "q3":
                    answer = match_pattern(gamma, sm_query(3)).embeddings
                else:
                    answer = count_kcliques(gamma, 4).cliques
                outcomes.append((answer, gamma.simulated_seconds, probed))
        (fast_answer, fast_sim, fast_probes), (answer, sim, probes) = outcomes
        assert answer > 0
        assert (fast_answer, fast_sim) == (answer, sim)
        assert fast_probes < probes

    @pytest.mark.parametrize("query", [3, 4])
    def test_label_is_probed_per_group_not_per_row(self, query, monkeypatch):
        """The saving itself: at a labelled level whose tail is not an
        anchor, a row expands only the labelled part of its ``L_m`` slice,
        cut around its own tail — exactly the rows it emits — where the
        twin expands every row's whole shortest list and then filters;
        same answer, same bill, same simulated time to the bit.
        ``ExtensionStats.expanded`` reports the slots materialised.  The
        stored arm keeps the table; without it the last level is only
        counted and expands nothing, for the same rows and the same bits."""
        from repro.algorithms import match_pattern
        from repro.core import Gamma
        from repro.graph import sm_query

        graph = kronecker(7, 6, seed=3, labels=8, label_seed=4)
        expand_lists = extension._expand_lists
        extend = ExtensionEngine._extend_vertices_impl
        slots = [0, 0]  # expanded by the level in progress: in all, from L_m
        levels = []  # (*slots, stats) of each labelled tail-free level

        def counting(values, starts, lengths, rows):
            cand, cand_row = expand_lists(values, starts, lengths, rows)
            slots[0] += len(cand)
            slots[1] += len(cand) if values is not graph.neighbors else 0
            return cand, cand_row

        def watch_extend(self, table, anchor_cols, label, *rest):
            slots[:] = [0, 0]
            tail_free = table.depth - 1 not in anchor_cols
            stats = extend(self, table, anchor_cols, label, *rest)
            if tail_free and label is not None:
                levels.append((*slots, stats))
            return stats

        monkeypatch.setattr(extension, "_expand_lists", counting)
        monkeypatch.setattr(
            ExtensionEngine, "_extend_vertices_impl", watch_extend)
        outcomes = []
        arms = [(stack, True) for stack in ARMS.values()]  # shipped, twins
        for stack, keep_table in arms + [(ARMS["fast"], False)]:
            levels.clear()
            with stack(), Gamma(graph) as gamma:
                result = match_pattern(
                    gamma, sm_query(query), keep_table=keep_table)
                answer = (result[0] if keep_table else result).embeddings
                outcomes.append(
                    (answer, float.hex(gamma.simulated_seconds), list(levels)))
        (fast_answer, fast_sim, fast), (answer, sim, twin), counted = outcomes
        assert answer > 0
        assert (fast_answer, fast_sim) == (answer, sim) == counted[:2]
        assert len(fast) == len(twin) == len(counted[2]) == {3: 1, 4: 2}[query]
        for (total, from_lm, stats), (twin_total, __, twin_stats) in zip(fast, twin):
            assert from_lm == stats.rows_out > 0
            assert stats.expanded == total < twin_total
            assert stats.candidates == twin_stats.candidates
        # Both queries end on a labelled tail-free level; counted, it
        # expands nothing of its L_m (q4's is not carried over, so phase 1
        # still walks neighbor lists to build it).
        __, __, last = fast[-1]
        total, from_lm, counted_last = counted[2][-1]
        assert from_lm == 0 < counted_last.rows_out == last.rows_out
        assert counted_last.expanded == total == {3: 0, 4: 1250}[query]


#: kCL-4 without the ordering (every permutation of a clique), so that a
#: ``dedup`` between two levels has rows to remove.
_UNORDERED_CLIQUE = [([0], [], []), ([0, 1], [], []), ([0, 1, 2], [], [])]


def _keep_two_in_three(rows):
    return np.array([sum(row) % 3 != 0 for row in rows], dtype=bool)


def _filter(engine, table, rows):
    engine.filtering(table, keep_mask=_keep_two_in_three(rows))
    return [row for row in rows if sum(row) % 3 != 0]


def _dedup(engine, table, rows):
    engine.dedup(table)
    first = {}
    for row in rows:
        first.setdefault(frozenset(row), row)
    return [row for row in rows if first[frozenset(row)] == row]


def _spilled(*want):
    def check(engine, table, rows):
        assert [isinstance(column, SpilledColumn)
                for column in table.parts[0].columns] == list(want)
        return rows
    return check


#: name -> (steps, what happens once the table holds three columns, engine
#: options, chunk_rows): the things that can come between a level and the
#: next, each of which must leave the next level computing its own ``L_m``
#: (or reading one that is still true) and the rows what they were.
INTERVENTIONS = {
    "nothing": (EDGE_WALKS["ascending-clique"], None, {}, None),
    "filtering": (EDGE_WALKS["ascending-clique"], _filter, {}, None),
    "filtering-q3": (EDGE_WALKS["q3-shape"], _filter, {}, None),
    "filtering-mark-only": (EDGE_WALKS["ascending-clique"], _filter,
                            {"compaction": False}, None),
    "dedup": (_UNORDERED_CLIQUE, _dedup, {}, None),
    # The columns before the last on disk: the last still carries lists.
    "spill-all-but-last": (
        EDGE_WALKS["five-clique"], _spilled(True, True, False),
        {"spill_to_disk": True, "spill_budget_bytes": 512,
         "spill_keep_columns": 1}, None),
    # No column fits the budget: each goes to disk as it is appended.
    "spill-at-birth": (
        EDGE_WALKS["five-clique"], _spilled(True, True, True),
        {"spill_to_disk": True, "spill_budget_bytes": 1,
         "spill_keep_columns": 1}, None),
    # 26 rows a chunk: the third level (28 rows in) runs in two chunks and
    # leaves nothing, the fourth computes and records, the fifth looks up.
    "chunked-then-whole": (EDGE_WALKS["five-clique"], None, {}, 26),
    # 40: the labelled level records, the last (62 rows in) is chunked.
    "whole-then-chunked": (EDGE_WALKS["q3-shape"], None, {}, 40),
}


def _intervened_walk(name, union_at=None, suspend=False):
    """Run one ``INTERVENTIONS`` walk on a ``Gamma`` engine, journaled the
    way the serve tier runs a query; ``union_at`` makes that step a union
    extension, ``suspend`` stops the query at the three-column boundary
    and finishes it on a fresh engine from the first one's snapshot.
    Returns the rows, the (last) engine's clock buckets and counters, and
    the rows expected by the oracle's recount."""
    from repro.core import Gamma, GammaConfig
    from repro.errors import QueryPreempted

    steps, between, options, chunk_rows = INTERVENTIONS[name]
    graph = _edge_case_graph()
    expected = []

    def task(engine, stop=False):
        engine.shards[0]._vertex_engine.chunk_rows = chunk_rows
        table = engine.new_vertex_table("walk")
        engine.seed_vertices(table)
        rows = vertex_walk_rows_ref(graph, [])
        for index, (anchors, greater, less, *own) in enumerate(steps):
            union = index == union_at
            extend = (engine.vertex_extension_any if union
                      else engine.vertex_extension)
            extend(table, anchors, label=own[0] if own else None,
                   greater_than_cols=greater, less_than_cols=less)
            rows = vertex_walk_rows_ref(
                graph, [steps[index]], adjacent=any if union else all,
                rows=rows)
            if index == 1:  # three columns (a replayed table is whole)
                if between is not None:
                    rows = between(engine, table, rows)
                if stop:
                    raise QueryPreempted(level=3)
        expected[:] = rows
        return table.materialize()

    config = GammaConfig(**options)
    handed = None
    if suspend:
        with Gamma(graph, config) as first:
            with pytest.raises(QueryPreempted):
                first.run(lambda engine: task(engine, stop=True))
            handed = first.snapshot()
    with Gamma(graph, config) as engine:
        rows = engine.run(task, resume_state=handed)
        return (rows, engine.platform.clock.snapshot(),
                engine.platform.counters.snapshot(), list(expected))


class TestLevelToLevel:
    """The lists a level leaves on its column stand in for the next
    level's phase 1 only on a proven match, and nothing that touches the
    column in between leaves them behind."""

    def test_lookups_hit_where_the_question_is_the_same(self, monkeypatch):
        from repro.core.embedding_table import Survivors

        answers = Survivors.answers
        said = []

        def watch(self, *question):
            said.append(answers(self, *question))
            return said[-1]

        monkeypatch.setattr(Survivors, "answers", watch)
        for name in sorted(EDGE_WALKS):
            said.clear()
            _run_anchored_walk(_edge_case_graph(), _edge_walk(name))
            assert said == LOOKUPS[name], name
            # One chunk per row: nothing is recorded, nothing asked.
            said.clear()
            _run_anchored_walk(_edge_case_graph(), _edge_walk(name, 1))
            assert said == [], name

    @pytest.mark.parametrize("suspend", [False, True])
    @pytest.mark.parametrize("name", sorted(INTERVENTIONS))
    def test_what_comes_between_two_levels(self, name, suspend):
        fast = _intervened_walk(name, suspend=suspend)
        with straight_line():
            ref = _intervened_walk(name, suspend=suspend)
        np.testing.assert_array_equal(fast[0], ref[0])
        assert fast[1] == ref[1]  # clock buckets, bit-for-bit
        assert fast[2] == ref[2]  # counters
        assert len(fast[3]) > 0
        assert [tuple(row) for row in fast[0].tolist()] == fast[3]

    @pytest.mark.parametrize("union_at", [1, 2])
    def test_union_level_leaves_nothing_to_look_up(self, union_at):
        """A union extension's column answers no intersection question;
        the level after it computes (rows compared sorted: a union emits a
        row's vertices in anchor order)."""
        fast = _intervened_walk("nothing", union_at=union_at)
        with straight_line():
            ref = _intervened_walk("nothing", union_at=union_at)
        np.testing.assert_array_equal(fast[0], ref[0])
        assert fast[1:3] == ref[1:3]
        assert len(fast[3]) > 0
        assert sorted(tuple(row) for row in fast[0].tolist()) == sorted(fast[3])

    def test_resuming_at_the_boundary_bills_the_uninterrupted_run(self):
        """Suspended where the last level would have read the column, and
        resumed on columns that carry nothing: same rows, same totals."""
        for name in ("nothing", "filtering-q3", "spill-all-but-last"):
            whole, resumed = (_intervened_walk(name, suspend=suspend)
                              for suspend in (False, True))
            np.testing.assert_array_equal(whole[0], resumed[0])
            assert whole[1:3] == resumed[1:3]


@pytest.mark.parametrize("task", ["4-clique", "q3"])
def test_previous_column_is_lm(task, monkeypatch):
    """The saving itself, as work counted, not timed.  On CL, the last
    level of kCL-4 and of SM(q3) never intersects a prefix again — no
    min-degree walk is started — so kCL-4 materialises only phase 2's
    slots (3 746 764; 4 778 755 while phase 1 recomputed ``L_m``) and
    SM(q3) exactly the rows it emits when it keeps the table — nothing
    when only its count is asked for; what the model bills, the answer
    and the simulated time are the twin's."""
    from repro.algorithms import count_kcliques, match_pattern
    from repro.core import Gamma
    from repro.graph import sm_query
    from repro.graph.datasets import clear_cache, load

    extend = ExtensionEngine._extend_vertices_impl
    walk = ExtensionEngine._min_degree_candidates
    levels = []  # (min-degree walks started, stats) of each level

    def watch_extend(self, *args):
        levels.append([0, None])
        levels[-1][1] = extend(self, *args)
        return levels[-1][1]

    def watch_walk(self, *args):
        levels[-1][0] += 1
        return walk(self, *args)

    monkeypatch.setattr(ExtensionEngine, "_extend_vertices_impl", watch_extend)
    monkeypatch.setattr(ExtensionEngine, "_min_degree_candidates", watch_walk)
    outcomes = []
    arms = [(stack, True) for stack in ARMS.values()]  # shipped, twins
    for stack, keep_table in arms + [(ARMS["fast"], False)]:
        levels.clear()
        clear_cache()  # the twin wants a graph without its hub rows
        with stack(), Gamma(load("CL")) as gamma:
            if task == "4-clique":
                result = count_kcliques(gamma, 4, keep_table=keep_table)
            else:
                result = match_pattern(gamma, sm_query(3), keep_table=keep_table)
            result = result[0] if keep_table else result
            answer = result.cliques if task == "4-clique" else result.embeddings
            outcomes.append((answer, float.hex(gamma.simulated_seconds),
                             [tuple(level) for level in levels]))
    clear_cache()
    (fast_answer, fast_sim, fast), (answer, sim, twin), counted = outcomes
    assert answer > 0
    assert (fast_answer, fast_sim) == (answer, sim) == counted[:2]
    for (__, stats), (__, twin_stats), (__, counted_stats) in zip(
            fast, twin, counted[2]):
        assert (stats.rows_out, stats.candidates, stats.groups) == (
            twin_stats.rows_out, twin_stats.candidates, twin_stats.groups) == (
            counted_stats.rows_out, counted_stats.candidates,
            counted_stats.groups)
    walks, last = fast[-1]
    counted_walks, counted_last = counted[2][-1]
    assert walks == counted_walks == 0
    if task == "4-clique":
        assert 0 < last.expanded == counted_last.expanded <= 3_746_764
    else:
        assert last.expanded == last.rows_out > 0
        assert counted_last.expanded == 0


class TestEdgeExtensionEquivalence:
    @given(extension_scenarios())
    @settings(max_examples=20, deadline=None)
    def test_identical_rows_clock_counters(self, scenario):
        seed, nv, ne, strategy, pre_merge, __, __, __, __ = scenario
        graph = _graph_for(seed, nv, ne)
        fast = _run_edge_walk(graph, strategy, pre_merge, 1)
        ref_graph = _graph_for(seed, nv, ne)
        with straight_line():
            ref = _run_edge_walk(ref_graph, strategy, pre_merge, 1)
        np.testing.assert_array_equal(fast[0], ref[0])
        assert fast[1] == ref[1]
        assert fast[2] == ref[2]


class TestUnionExtensionEquivalence:
    @given(extension_scenarios())
    @settings(max_examples=20, deadline=None)
    def test_extend_vertices_any(self, scenario):
        (seed, nv, ne, strategy, pre_merge, __, label, use_gt,
         injective) = scenario

        def run(graph):
            platform, engine = _build_engine(graph, strategy, pre_merge)
            table = EmbeddingTable(platform, VERTEX)
            engine.seed_vertices(table)
            engine.extend_vertices(table, anchor_cols=[0], injective=True)
            engine.extend_vertices_any(
                table,
                anchor_cols=[0, 1],
                label=label,
                greater_than_col=1 if use_gt else None,
                injective=injective,
            )
            return (table.materialize(), platform.clock.snapshot(),
                    platform.counters.snapshot())

        fast = run(_graph_for(seed, nv, ne))
        with straight_line():
            ref = run(_graph_for(seed, nv, ne))
        np.testing.assert_array_equal(fast[0], ref[0])
        assert fast[1] == ref[1]
        assert fast[2] == ref[2]


    @given(anchored_walks())
    @settings(max_examples=30, deadline=None)
    def test_identical_rows_clock_counters_and_oracle_rows(self, walk):
        _assert_walk_equivalent(
            lambda: _graph_for(*walk["graph"]), {**walk, "union": True})

    @pytest.mark.parametrize("name", sorted(EDGE_WALKS))
    def test_bounds_at_their_edges(self, name):
        _assert_walk_equivalent(_edge_case_graph, _edge_walk(name, union=True))
        _assert_walk_equivalent(
            _edge_case_graph,
            _edge_walk(name, union=True, injective=False, label=0),
        )


def _first_of_each_pair(rows, values):
    seen, keep = set(), []
    for pair in zip(rows.tolist(), values.tolist()):
        keep.append(pair not in seen)
        seen.add(pair)
    return np.array(keep, dtype=bool)


class TestFirstOccurrenceMask:
    """Edge extension's per-row dedup on both sides of the packed-key
    bound, for rows grouped as extension produces them and shuffled."""

    @pytest.mark.parametrize("grouped", [True, False])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_keeps_each_pairs_first_row(self, overflow, grouped):
        rng = np.random.default_rng(3)
        # rows.max() == 3: 2**61 is the largest modulus whose keys fit.
        modulus = (1 << 61) + overflow
        rows = np.repeat(np.arange(4), 60)
        values = rng.integers(0, 6, len(rows)) * (modulus // 7)
        if not grouped:
            shuffle = rng.permutation(len(rows))
            rows, values = rows[shuffle], values[shuffle]
        fits = int(rows.max()) <= (np.iinfo(np.int64).max - (modulus - 1)) // modulus
        assert fits != overflow
        lexsorted = mock.patch.object(extension.np, "lexsort", wraps=np.lexsort)
        with lexsorted as wide:
            got = extension._first_occurrence_mask(rows, values, modulus)
        assert wide.call_count == overflow
        np.testing.assert_array_equal(got, _first_of_each_pair(rows, values))


@pytest.mark.parametrize("dataset,task", [("CL", "sm"), ("CL", "kcl")])
def test_end_to_end_simulated_time_identical(dataset, task):
    """Whole-workload smoke: GAMMA's simulated seconds are the same on the
    straight-line stack."""
    from repro.bench.runner import run_task
    from repro.bench.workloads import kcl_task, sm_task

    t = sm_task(1) if task == "sm" else kcl_task(3)
    fast = run_task("GAMMA", dataset, t)
    with straight_line():
        ref = run_task("GAMMA", dataset, t)
    assert fast.simulated_seconds == ref.simulated_seconds
    assert fast.peak_memory_bytes == ref.peak_memory_bytes
