"""Satellite differential corpus: planner-chosen orders change *where the
time goes*, never *what is counted*.

For random graphs and random connected patterns, an ``--plan auto`` run
must report counts identical to ``--plan baseline`` and to the
pure-Python DFS oracles (:mod:`tests.oracle`), across 1, 2, and 4
simulated GPUs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.algorithms import (
    count_kcliques,
    frequent_pattern_mining,
    match_pattern,
    motif_count,
)
from repro.core import Gamma
from repro.graph import Pattern, from_edges, zipf_labels
from repro.shard import ShardedGamma

from tests.oracle import (
    kclique_count_ref,
    motif_histogram_ref,
    sm_embedding_count_ref,
)

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SHARD_COUNTS = (1, 2, 4)

#: Connected query shapes up to 4 vertices (paths, cycle, triangle, star,
#: tailed triangle) — enough to exercise every planner branch.
_SHAPES = (
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (0, 2), (0, 3)],
    [(0, 1), (1, 2), (2, 3)],
    [(0, 1), (1, 2), (0, 2), (2, 3)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)


@hst.composite
def random_graphs(draw, max_vertices=18, max_edges=50, max_labels=3):
    n = draw(hst.integers(min_value=4, max_value=max_vertices))
    m = draw(hst.integers(min_value=3, max_value=max_edges))
    seed = draw(hst.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    labels = zipf_labels(n, max_labels, seed=seed)
    return from_edges(src, dst, num_vertices=n, labels=labels)


def _engine(graph, num_shards):
    if num_shards == 1:
        return Gamma(graph)
    return ShardedGamma(graph, num_shards=num_shards)


@given(graph=random_graphs(), shape=hst.sampled_from(_SHAPES),
       labeled=hst.booleans(), data=hst.data())
@SLOW
def test_sm_auto_equals_baseline_and_oracle(graph, shape, labeled, data):
    k = max(max(e) for e in shape) + 1
    labels = [data.draw(hst.integers(min_value=0, max_value=2))
              for __ in range(k)] if labeled else None
    pattern = Pattern(shape, labels=labels, name="diff-plan-sm")
    num_shards = data.draw(hst.sampled_from(SHARD_COUNTS))
    counts = {}
    for spec in ("baseline", "auto"):
        with _engine(graph, num_shards) as engine:
            counts[spec] = match_pattern(
                engine, pattern, plan=spec).embeddings
    assert counts["auto"] == counts["baseline"]
    assert counts["auto"] == sm_embedding_count_ref(graph, pattern)


@given(graph=random_graphs(max_vertices=14, max_edges=36),
       num_edges=hst.integers(min_value=2, max_value=3), data=hst.data())
@SLOW
def test_motif_auto_equals_baseline_and_oracle(graph, num_edges, data):
    num_shards = data.draw(hst.sampled_from(SHARD_COUNTS))
    results = {}
    for spec in ("baseline", "auto"):
        with _engine(graph, num_shards) as engine:
            results[spec] = motif_count(
                engine, num_edges, plan=spec).histogram
    assert results["auto"] == results["baseline"]
    assert results["auto"] == motif_histogram_ref(graph, num_edges)


@given(graph=random_graphs(max_vertices=14, max_edges=36),
       min_support=hst.sampled_from((1, 2, 5)),
       metric=hst.sampled_from(("instances", "mni")), data=hst.data())
@SLOW
def test_fpm_auto_equals_baseline(graph, min_support, metric, data):
    """FPM's support filter can disable ordered growth mid-run (rows
    dropped before extension); whatever the plan says, the adaptive
    fallback must keep the mined pattern set identical."""
    num_shards = data.draw(hst.sampled_from(SHARD_COUNTS))
    if num_shards > 1:
        metric = "instances"   # MNI minima do not decompose across shards
    results = {}
    for spec in ("baseline", "auto"):
        with _engine(graph, num_shards) as engine:
            results[spec] = frequent_pattern_mining(
                engine, 2, min_support, support_metric=metric,
                plan=spec).patterns
    assert results["auto"] == results["baseline"]


@given(graph=random_graphs(), k=hst.integers(min_value=3, max_value=4),
       data=hst.data())
@SLOW
def test_kclique_auto_equals_baseline_and_oracle(graph, k, data):
    num_shards = data.draw(hst.sampled_from(SHARD_COUNTS))
    counts = {}
    for spec in ("baseline", "auto"):
        with _engine(graph, num_shards) as engine:
            counts[spec] = count_kcliques(engine, k, plan=spec).cliques
    assert counts["auto"] == counts["baseline"]
    assert counts["auto"] == kclique_count_ref(graph, k)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_wheel_triangle_query_auto_every_shard_count(wheel_graph,
                                                     num_shards):
    """Deterministic anchor: the W5 wheel has 5 triangles => 30 injective
    triangle embeddings, whatever order the planner picks."""
    pattern = Pattern([(0, 1), (1, 2), (0, 2)], name="triangle-q")
    with _engine(wheel_graph, num_shards) as engine:
        assert match_pattern(engine, pattern,
                             plan="auto").embeddings == 30
