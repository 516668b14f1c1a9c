"""Equivalence of the fused extension hot path and its straight-line twins.

The progressive (compress-as-you-filter) candidate pruning, the prefix
intersection shared by sibling rows, the adjacency bitset, and the batched
charging underneath must leave no observable trace:
identical embeddings, identical simulated clock buckets, identical counters
— bit-for-bit — against the straight-line twins in :mod:`tests.twins`,
across write strategies, pre-merge on/off, and constraint combinations.
"""

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
        # The adjacency bitset is lazily cached on the graph; a fresh graph
        # keeps the straight-line run on the binary search.
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
    for anchors, greater, less in walk["steps"]:
        engine.extend_vertices(
            table, anchors, label=walk["label"], greater_than_cols=greater,
            less_than_cols=less, injective=walk["injective"],
        )
    rows = table.materialize()
    return rows, platform.clock.snapshot(), platform.counters.snapshot()


class TestSharedPrefixEquivalence:
    @given(anchored_walks())
    @settings(max_examples=60, deadline=None)
    def test_identical_rows_clock_counters_and_oracle_rows(self, walk):
        fast = _run_anchored_walk(_graph_for(*walk["graph"]), walk)
        with straight_line():
            ref = _run_anchored_walk(_graph_for(*walk["graph"]), walk)
        np.testing.assert_array_equal(fast[0], ref[0])
        assert fast[1] == ref[1]  # clock buckets, bit-for-bit
        assert fast[2] == ref[2]  # counters
        expected = vertex_walk_rows_ref(
            _graph_for(*walk["graph"]), walk["steps"], walk["label"],
            walk["injective"],
        )
        assert [tuple(row) for row in fast[0].tolist()] == expected

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
