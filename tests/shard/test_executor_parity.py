"""Differential corpus: process-pool executor vs the serial executor.

The process backend runs the exact same per-shard handler code as the
serial backend, but in forked worker processes with results funnelled
back over pipes.  The determinism contract (docs/SHARDING.md) says the
two must be indistinguishable from the outside: identical mining
results, identical per-shard counters and clock buckets, and
byte-identical canonical manifests.  This file pins that contract both
on a fixed full matrix ({1,2,4} shards x {static,degree,stealing}
policies) and on a Hypothesis corpus of random graphs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.algorithms import (
    count_kcliques,
    graphlet_census,
    motif_count,
    triangle_count,
)
from repro.graph import from_edges, generators, zipf_labels
from repro.shard import (
    ShardedGamma,
    build_sharded_manifest,
    canonical_manifest_bytes,
)
from tests.twins import ARMS

SLOW = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SHARD_COUNTS = (1, 2, 4)
POLICIES = ("static", "degree", "stealing")


@hst.composite
def random_graphs(draw, max_vertices=16, max_edges=40, max_labels=3):
    n = draw(hst.integers(min_value=4, max_value=max_vertices))
    m = draw(hst.integers(min_value=3, max_value=max_edges))
    seed = draw(hst.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    labels = zipf_labels(n, max_labels, seed=seed)
    return from_edges(src, dst, num_vertices=n, labels=labels)


def _observe(executor, graph, num_shards, policy, drive):
    """Run one sharded workload and capture everything the determinism
    contract covers: the mining result, the full per-shard state dicts,
    and the canonical manifest bytes."""
    engine = ShardedGamma(
        graph, num_shards=num_shards, policy=policy, executor=executor
    )
    try:
        result = drive(engine)
        states = engine.shard_states()
        manifest = build_sharded_manifest(
            engine, system="GAMMA", dataset="parity", task="parity"
        )
        blob = canonical_manifest_bytes(manifest)
    finally:
        engine.close()
    return result, states, blob


def _assert_parity(graph, num_shards, policy, drive):
    serial = _observe("serial", graph, num_shards, policy, drive)
    process = _observe("process", graph, num_shards, policy, drive)
    assert serial[0] == process[0]  # mining result
    assert serial[1] == process[1]  # per-shard counters/clock buckets
    assert serial[2] == process[2]  # canonical manifest bytes


@pytest.fixture(scope="module")
def matrix_graph():
    return generators.erdos_renyi(24, 70, seed=11, labels=3)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_matrix_triangles_parity(matrix_graph, num_shards, policy):
    """Fixed-graph anchor over the full shard-count x policy matrix."""
    _assert_parity(
        matrix_graph, num_shards, policy,
        lambda engine: triangle_count(engine).triangles,
    )


@pytest.mark.parametrize("arm", ARMS)
def test_matrix_kcliques_parity_both_arms(matrix_graph, arm):
    """The backends agree as shipped and on the straight-line twins."""
    with ARMS[arm]():
        _assert_parity(
            matrix_graph, 4, "stealing",
            lambda engine: count_kcliques(engine, 4).cliques,
        )


@pytest.mark.parametrize("num_shards", (1, 2))
def test_graphlets_parity_bills_the_classify_kernel(num_shards):
    """The census classifies rows on the front; its kernel is billed to
    partition 0 through the executor, so a worker process sees it too."""
    graph = generators.erdos_renyi(60, 300, seed=2)

    def drive(engine):
        census = graphlet_census(engine, 4)
        return census.histogram, census.total, census.simulated_seconds

    _assert_parity(graph, num_shards, "static", drive)


@given(graph=random_graphs(), data=hst.data())
@SLOW
def test_kcliques_parity_property(graph, data):
    num_shards = data.draw(hst.sampled_from(SHARD_COUNTS))
    policy = data.draw(hst.sampled_from(POLICIES))
    _assert_parity(
        graph, num_shards, policy,
        lambda engine: count_kcliques(engine, 3).cliques,
    )


@given(graph=random_graphs(max_vertices=12, max_edges=30), data=hst.data())
@SLOW
def test_motifs_parity_property(graph, data):
    num_shards = data.draw(hst.sampled_from(SHARD_COUNTS))
    policy = data.draw(hst.sampled_from(POLICIES))
    _assert_parity(
        graph, num_shards, policy,
        lambda engine: motif_count(engine, 3).histogram,
    )
