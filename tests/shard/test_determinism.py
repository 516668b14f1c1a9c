"""Determinism guarantees of sharded execution.

Two promises (docs/SHARDING.md):

1. the same sharded workload run twice produces byte-identical canonical
   manifests and identical mining output — the simulator never reads the
   wall clock and the partitioning policies are RNG-free;
2. a single-shard ``ShardedGamma`` is *bit-identical* to the unsharded
   ``Gamma`` engine: no ownership filters, no barriers, no exchanges, so
   the op stream, every counter and every clock bucket match exactly.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro.algorithms import (
    count_kcliques,
    frequent_pattern_mining,
    match_pattern,
    motif_count,
)
from repro.core import Gamma
from repro.graph import generators, sm_query
from repro.graph.patterns import Pattern
from repro.shard import (
    SHARD_POLICIES,
    ShardedGamma,
    build_sharded_manifest,
    canonical_manifest_bytes,
)


@pytest.fixture(scope="module")
def graph():
    return generators.erdos_renyi(36, 120, seed=23, labels=3)


def test_repeated_runs_are_byte_identical(graph):
    def one_run():
        engine = ShardedGamma(graph, num_shards=4, policy="stealing")
        result = motif_count(engine, 3)
        manifest = build_sharded_manifest(
            engine, system="GAMMA", dataset="er36", task="motifs"
        )
        return result, canonical_manifest_bytes(manifest)

    first, first_bytes = one_run()
    second, second_bytes = one_run()
    assert first.histogram == second.histogram
    assert first_bytes == second_bytes


#: A child process mines the ``graph`` fixture's graph on four stealing
#: shards and writes each query's canonical manifest to stdout, hex-encoded.
_CHILD = """
from repro.algorithms import frequent_pattern_mining, motif_count
from repro.graph import generators
from repro.shard import ShardedGamma, build_sharded_manifest, canonical_manifest_bytes

graph = generators.erdos_renyi(36, 120, seed=23, labels=3)
for task, drive in (("motifs", lambda e: motif_count(e, 3)),
                    ("fpm", lambda e: frequent_pattern_mining(e, 2, 4))):
    with ShardedGamma(graph, num_shards=4, policy="stealing") as engine:
        drive(engine)
        manifest = build_sharded_manifest(engine, system="GAMMA",
                                          dataset="er36", task=task)
    print(canonical_manifest_bytes(manifest).hex())
"""


def test_manifests_do_not_depend_on_the_hash_seed():
    """A set of strings iterates in an order ``PYTHONHASHSEED`` picks;
    nothing a manifest holds may follow it."""
    src = str(Path(repro.__file__).resolve().parent.parent)

    def manifests(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        return done.stdout.split()

    first, second = manifests("0"), manifests("12345")
    assert len(first) == 2
    assert first == second


def test_bills_read_neither_the_host_clock_nor_the_global_rng(graph):
    """FPM-2 and SM(q3) bill the same bits, clock bucket by bucket and
    counter by counter, whatever state NumPy's and Python's global RNGs
    are in and however far the host clocks jump between reads."""
    q3 = Pattern(sm_query(3).edges, name="q3-unlabelled")

    def bills(seed, step):
        np.random.seed(seed)
        random.seed(seed)
        ticks = itertools.count()

        def jumping():
            return 1e9 + next(ticks) * step

        out = []
        with mock.patch.object(time, "perf_counter", jumping), \
                mock.patch.object(time, "time", jumping), \
                mock.patch.object(time, "monotonic", jumping):
            for mine in (lambda e: frequent_pattern_mining(e, 2, 4).patterns,
                         lambda e: match_pattern(e, q3).embeddings):
                with Gamma(graph) as engine:
                    answer = mine(engine)
                    platform = engine.platform
                    out.append((answer, float.hex(engine.simulated_seconds),
                                platform.clock.snapshot(),
                                platform.counters.snapshot(include_zero=True)))
        return out

    first, second = bills(0, 1e-3), bills(12345, 3600.0)
    assert all(answer for answer, *__ in first)
    assert first == second


def test_canonical_bytes_strip_only_volatile_fields(graph):
    engine = ShardedGamma(graph, num_shards=2)
    count_kcliques(engine, 3)
    manifest = build_sharded_manifest(engine, system="GAMMA")
    blob = canonical_manifest_bytes(manifest)
    assert b"created_utc" not in blob
    assert b"wall_seconds" not in blob
    # The deterministic payload survives.
    assert b"counters" in blob
    assert b"utilization" in blob


@pytest.mark.parametrize("task", ["kcl", "motifs", "fpm"])
def test_single_shard_is_bit_identical_to_gamma(graph, task):
    def drive(engine):
        if task == "kcl":
            return count_kcliques(engine, 4).cliques
        if task == "motifs":
            return motif_count(engine, 3).histogram
        return frequent_pattern_mining(engine, 2, 4).patterns

    plain = Gamma(graph)
    ref = drive(plain)
    sharded = ShardedGamma(graph, num_shards=1)
    got = drive(sharded)

    assert got == ref  # counts and canonical codes
    shard0 = sharded.shard_states()[0]
    assert (shard0["counters"]
            == plain.platform.counters.snapshot(include_zero=True))
    assert shard0["clock_buckets"] == plain.platform.clock.snapshot()
    assert sharded.simulated_seconds == plain.simulated_seconds
    assert sharded.peak_memory_bytes == plain.peak_memory_bytes
    # No sharding machinery leaked into the run.
    assert shard0["counters"].get("bytes_p2p", 0) == 0
    assert shard0["clock_buckets"].get("shard_sync", 0.0) == 0.0
    assert sharded.shard_utilization() == [1.0]


def test_shard_counts_change_clock_but_not_results(graph):
    histograms = {}
    for n in (1, 2, 4):
        engine = ShardedGamma(graph, num_shards=n, policy="degree")
        histograms[n] = motif_count(engine, 3).histogram
    assert histograms[1] == histograms[2] == histograms[4]


def test_sharding_speeds_up_compute_bound_mining():
    """On a graph dense enough that extension work dominates the fixed
    per-engine costs (graph staging, per-level launches), four shards must
    beat one on the simulated clock.
    ``test_four_gpu_stealing_clears_the_scaling_bar`` asserts the full
    >= 1.5x bar on a larger instance."""
    dense = generators.erdos_renyi(300, 6000, seed=5)
    seconds = {}
    for n in (1, 4):
        engine = ShardedGamma(dense, num_shards=n, policy="degree")
        count_kcliques(engine, 4)
        seconds[n] = engine.simulated_seconds
    assert seconds[4] < seconds[1]


#: The scaling bar (docs/SHARDING.md): four simulated GPUs with work
#: stealing beat one by this factor on 4-clique over a compute-bound graph.
SCALING_BAR = 1.5


def test_four_gpu_stealing_clears_the_scaling_bar():
    """Every policy at 1/2/4 shards counts the same 4-cliques, and
    stealing x4 is >= 1.5x faster than x1 on the simulated clock."""
    dense = generators.erdos_renyi(500, 15_000, seed=5)
    cliques = {}
    seconds = {}
    for policy in SHARD_POLICIES:
        for n in (1, 2, 4):
            with ShardedGamma(dense, num_shards=n, policy=policy) as engine:
                cliques[policy, n] = count_kcliques(engine, 4).cliques
                seconds[policy, n] = engine.simulated_seconds
    assert len(cliques) == 9 and len(set(cliques.values())) == 1, cliques
    speedup = seconds["stealing", 1] / seconds["stealing", 4]
    assert speedup >= SCALING_BAR, f"stealing x4 is {speedup:.2f}x"


def test_merged_manifest_structure(graph):
    engine = ShardedGamma(graph, num_shards=2, policy="static")
    count_kcliques(engine, 3)
    manifest = build_sharded_manifest(
        engine, system="GAMMA", dataset="er36", task="kcl"
    )
    assert manifest["num_shards"] == 2
    assert manifest["shard_policy"] == "static"
    assert len(manifest["shards"]) == 2
    assert [doc["shard"] for doc in manifest["shards"]] == [0, 1]
    assert len(manifest["utilization"]) == 2
    assert all(0.0 <= u <= 1.0 for u in manifest["utilization"])
    # Merged counters sum the shards.
    key = "kernel_launches"
    per_shard = [doc["counters"].get(key, 0) for doc in manifest["shards"]]
    if any(per_shard):
        assert manifest["counters"][key] == sum(per_shard)
