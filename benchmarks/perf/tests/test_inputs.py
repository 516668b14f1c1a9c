"""Seed 0 is the named stand-in; other seeds are other graphs, repeatably."""

import numpy as np
import pytest

from benchmarks.perf import workloads
from repro.graph import datasets


def _same(a, b):
    return (a.num_vertices == b.num_vertices
            and np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.neighbors, b.neighbors)
            and np.array_equal(a.labels, b.labels))


@pytest.mark.parametrize("build, abbrev, vertices, edges", [
    (workloads.graph_cl, "CL", 2048, 23781),
    (workloads.graph_sl5, "SL*5", 20480, 326730),
    (workloads.graph_cl8, "CL*8", 16384, 190248),
])
def test_seed_zero_equals_the_stand_in(build, abbrev, vertices, edges):
    graph = build(0)
    assert (graph.num_vertices, graph.num_edges) == (vertices, edges)
    assert _same(graph, datasets.load(abbrev))
    datasets.clear_cache()


@pytest.mark.parametrize("build", [workloads.graph_cl, workloads.graph_sl5])
def test_seed_moves_the_structure_not_the_labels_and_repeats(build):
    zero, one = build(0), build(1)
    assert not np.array_equal(one.neighbors, zero.neighbors)
    assert np.array_equal(one.labels, zero.labels)
    assert _same(one, build(1))


def test_serve_order_is_seeded_thirds():
    first = workloads.serve_queries(3, 300)
    assert first == workloads.serve_queries(3, 300)
    assert first != workloads.serve_queries(4, 300)
    keys = [key for key, __ in first]
    assert {key: keys.count(key) for key in workloads.SERVE_MIX} == {
        "sm1": 100, "kcl3": 100, "sm3": 100}
    assert all(spec["dataset"] == "CL" for __, spec in first)


def test_answers_are_pinned_for_the_pinned_seeds():
    answers = workloads.load_answers()
    assert answers["seeds"]["0"]["shard2_kcl4_cl8"] == {"cliques": 1380794}
    for seed in workloads.PINNED_SEEDS:
        assert set(answers["seeds"][str(seed)]) == set(workloads.NAMES)
    assert workloads.pinned_answer("fpm_cl", 99) is None
    assert set(answers["cli"]) == set(workloads.NAMES)
