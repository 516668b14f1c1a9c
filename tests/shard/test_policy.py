"""Unit tests for the level-0 frontier partitioning policies."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.algorithms import count_kcliques
from repro.core import Gamma
from repro.errors import ExecutionError
from repro.graph import generators
from repro.shard import policy as shard_policy
from repro.shard.policy import (
    EDGE_UNITS,
    SHARD_POLICIES,
    VERTEX_UNITS,
    _unit_weights,
    assign_degree,
    assign_static,
    assign_stealing,
    assign_units,
)
from tests.twins import assign_degree_by_argmin


@pytest.fixture(scope="module")
def skewed_graph():
    """A hub-heavy graph so degree balance differs from count balance."""
    return generators.kronecker(5, 8, seed=3)


@pytest.mark.parametrize("policy", SHARD_POLICIES)
@pytest.mark.parametrize("units", (VERTEX_UNITS, EDGE_UNITS))
@pytest.mark.parametrize("num_shards", (1, 2, 3, 4))
def test_assignment_is_a_partition(skewed_graph, policy, units, num_shards):
    assignment = assign_units(skewed_graph, num_shards, units, policy)
    n = (skewed_graph.num_vertices if units == VERTEX_UNITS
         else skewed_graph.num_edges)
    assert assignment.shape == (n,)
    assert assignment.dtype == np.int64
    assert assignment.min() >= 0
    assert assignment.max() < num_shards
    if num_shards > 1 and n >= num_shards:
        # Every shard owns something on a graph bigger than the fleet.
        assert len(np.unique(assignment)) == num_shards


@pytest.mark.parametrize("policy", SHARD_POLICIES)
def test_assignment_is_deterministic(skewed_graph, policy):
    a = assign_units(skewed_graph, 4, VERTEX_UNITS, policy)
    b = assign_units(skewed_graph, 4, VERTEX_UNITS, policy)
    np.testing.assert_array_equal(a, b)


def test_single_shard_owns_everything(skewed_graph):
    for policy in SHARD_POLICIES:
        assignment = assign_units(skewed_graph, 1, EDGE_UNITS, policy)
        assert not assignment.any()


def test_static_ranges_are_contiguous(skewed_graph):
    assignment = assign_static(skewed_graph, 3, VERTEX_UNITS)
    # Shard ids are non-decreasing over unit ids: contiguous ranges.
    assert (np.diff(assignment) >= 0).all()


def test_degree_balances_weight_better_than_static(skewed_graph):
    weights = _unit_weights(skewed_graph, VERTEX_UNITS)

    def imbalance(assignment):
        loads = np.bincount(assignment, weights=weights, minlength=4)
        return loads.max() / loads.mean()

    static = assign_static(skewed_graph, 4, VERTEX_UNITS)
    degree = assign_degree(skewed_graph, 4, VERTEX_UNITS)
    assert imbalance(degree) <= imbalance(static)


def test_stealing_respects_chunk_contiguity(skewed_graph):
    from repro.shard.policy import STEAL_CHUNKS_PER_SHARD

    assignment = assign_stealing(skewed_graph, 4, EDGE_UNITS)
    # Work stealing claims contiguous chunks: the number of shard-id
    # switches is bounded by the chunk count, not the unit count.
    num_chunks = min(len(assignment), 4 * STEAL_CHUNKS_PER_SHARD)
    switches = int((np.diff(assignment) != 0).sum())
    assert switches <= num_chunks - 1
    assert num_chunks < len(assignment)


def test_edge_weights_use_both_endpoints(skewed_graph):
    w = _unit_weights(skewed_graph, EDGE_UNITS)
    degrees = skewed_graph.degrees
    e0_src = int(skewed_graph.edge_src[0])
    e0_dst = int(skewed_graph.edge_dst[0])
    assert w[0] == 1 + degrees[e0_src] + degrees[e0_dst]


def test_invalid_inputs_raise(skewed_graph):
    with pytest.raises(ExecutionError):
        assign_units(skewed_graph, 2, VERTEX_UNITS, "round-robin")
    with pytest.raises(ExecutionError):
        assign_units(skewed_graph, 0, VERTEX_UNITS, "static")
    with pytest.raises(ExecutionError):
        assign_units(skewed_graph, 2, "faces", "static")


@settings(max_examples=40, deadline=None)
@given(num_vertices=hst.integers(min_value=1, max_value=60),
       density=hst.floats(min_value=0.0, max_value=0.4),
       seed=hst.integers(min_value=0, max_value=2**31 - 1),
       num_shards=hst.integers(min_value=1, max_value=5),
       units=hst.sampled_from((VERTEX_UNITS, EDGE_UNITS)))
def test_degree_heap_equals_the_argmin_walk(num_vertices, density, seed,
                                            num_shards, units):
    """LPT through a heap of ``(load, shard)`` assigns every unit as the
    per-unit ``np.argmin`` walk does, ties to the lowest shard id (equal
    degrees abound on random graphs)."""
    pairs = num_vertices * (num_vertices - 1) // 2
    graph = generators.erdos_renyi(
        num_vertices, int(density * pairs), seed=seed)
    np.testing.assert_array_equal(
        assign_degree(graph, num_shards, units),
        assign_degree_by_argmin(graph, num_shards, units))


@pytest.mark.parametrize("policy", SHARD_POLICIES)
def test_two_engines_on_one_graph_assign_once(policy):
    """The assignment is kept on the graph: the second engine's front and
    partitions, and both of the first's, read the array the first built —
    once per unit kind — and nobody may write it."""
    graph = generators.kronecker(6, 4, seed=3)
    built = []
    real = shard_policy._POLICY_FNS[policy]

    def spy(graph, num_shards, units):
        built.append(units)
        return real(graph, num_shards, units)

    with mock.patch.dict(shard_policy._POLICY_FNS, {policy: spy}):
        for __ in range(2):
            with Gamma(graph, num_shards=2, policy=policy,
                       executor="serial") as engine:
                count_kcliques(engine, 3)
        owner = assign_units(graph, 2, VERTEX_UNITS, policy)
    assert built == [VERTEX_UNITS]
    assert not owner.flags.writeable
    assert owner is assign_units(graph, 2, VERTEX_UNITS, policy)
