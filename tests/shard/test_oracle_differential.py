"""Differential corpus: sharded GAMMA vs the brute-force oracle.

Every mining result produced by a sharded run — any shard count, any
policy — must equal the count a pure-Python DFS
enumeration produces on the same graph.  The oracle
(:mod:`tests.oracle`) shares no pipeline code with the engine, so an
agreement here rules out whole classes of partitioning bugs: lost or
double-owned frontier units, broken cross-shard deduplication, pattern
supports miscounted in the aggregation merge.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.algorithms import (
    count_kcliques,
    match_pattern,
    motif_count,
    triangle_count,
)
from repro.algorithms.subgraph_matching import match_pattern_binary
from repro.graph import Pattern, from_edges, zipf_labels
from repro.shard import ShardedGamma

from tests.oracle import (
    kclique_count_ref,
    motif_histogram_ref,
    sm_embedding_count_ref,
    triangle_count_ref,
)
from tests.twins import ARMS

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SHARD_COUNTS = (1, 2, 4)


@hst.composite
def random_graphs(draw, max_vertices=20, max_edges=60, max_labels=3):
    n = draw(hst.integers(min_value=4, max_value=max_vertices))
    m = draw(hst.integers(min_value=3, max_value=max_edges))
    seed = draw(hst.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    labels = zipf_labels(n, max_labels, seed=seed)
    return from_edges(src, dst, num_vertices=n, labels=labels)


def sharding_params(draw):
    num_shards = draw(hst.sampled_from(SHARD_COUNTS))
    policy = draw(hst.sampled_from(("static", "degree", "stealing")))
    return num_shards, policy


@given(graph=random_graphs(), data=hst.data())
@SLOW
def test_triangles_match_oracle(graph, data):
    num_shards, policy = sharding_params(data.draw)
    engine = ShardedGamma(graph, num_shards=num_shards, policy=policy)
    got = triangle_count(engine).triangles
    assert got == triangle_count_ref(graph)


@given(graph=random_graphs(), k=hst.integers(min_value=3, max_value=5),
       data=hst.data())
@SLOW
def test_kcliques_match_oracle(graph, k, data):
    num_shards, policy = sharding_params(data.draw)
    engine = ShardedGamma(graph, num_shards=num_shards, policy=policy)
    got = count_kcliques(engine, k).cliques
    assert got == kclique_count_ref(graph, k)


@given(graph=random_graphs(max_vertices=14, max_edges=36),
       num_edges=hst.integers(min_value=2, max_value=3), data=hst.data())
@SLOW
def test_motifs_match_oracle(graph, num_edges, data):
    num_shards, policy = sharding_params(data.draw)
    engine = ShardedGamma(graph, num_shards=num_shards, policy=policy)
    got = motif_count(engine, num_edges)
    ref = motif_histogram_ref(graph, num_edges)
    assert got.histogram == ref
    assert got.total_instances == sum(ref.values())


_SM_SHAPES = (
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)


@given(graph=random_graphs(max_vertices=16, max_edges=40),
       shape=hst.sampled_from(_SM_SHAPES), labeled=hst.booleans(),
       binary=hst.booleans(), data=hst.data())
@SLOW
def test_subgraph_matching_matches_oracle(graph, shape, labeled, binary,
                                          data):
    k = max(max(e) for e in shape) + 1
    labels = [data.draw(hst.integers(min_value=0, max_value=2))
              for __ in range(k)] if labeled else None
    pattern = Pattern(shape, labels=labels, name="diff-sm")
    num_shards, policy = sharding_params(data.draw)
    matcher = match_pattern_binary if binary else match_pattern
    engine = ShardedGamma(graph, num_shards=num_shards, policy=policy)
    got = matcher(engine, pattern).embeddings
    assert got == sm_embedding_count_ref(graph, pattern)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("arm", ARMS)
def test_wheel_triangles_every_arm(wheel_graph, num_shards, arm):
    """Deterministic anchor alongside the property tests: W5 has exactly
    5 triangles under every shard count, as shipped and on the
    straight-line twins."""
    with ARMS[arm]():
        engine = ShardedGamma(wheel_graph, num_shards=num_shards,
                              policy="degree")
        assert triangle_count(engine).triangles == 5
