"""Checkpoint/resume and MNI guard-rails for sharded runs."""

import pytest

from repro.algorithms import count_kcliques, frequent_pattern_mining
from repro.core import Gamma
from repro.errors import ExecutionError, GammaError
from repro.graph import generators
from repro.resilience import FaultPlan, FaultSpec
from repro.shard import ShardedGamma


@pytest.fixture(scope="module")
def graph():
    return generators.erdos_renyi(36, 120, seed=23, labels=3)


def _task(engine):
    return count_kcliques(engine, 4)


def test_crash_then_resume_matches_clean_run(graph, tmp_path):
    ckpt = tmp_path / "ck"

    crashed = ShardedGamma(graph, num_shards=2)
    crashed.install_fault_plan(FaultPlan(
        name="kill",
        specs=(FaultSpec(kind="device_oom", at="*/level:2"),),
    ), shard=1)
    with pytest.raises(GammaError):
        crashed.run(_task, checkpoint_dir=str(ckpt))
    crashed.close()
    # One checkpoint per shard.
    assert (ckpt / "shard-0" / "checkpoint.bin").exists()
    assert (ckpt / "shard-1" / "checkpoint.bin").exists()

    resumed = ShardedGamma(graph, num_shards=2)
    result = resumed.run(_task, checkpoint_dir=str(ckpt), resume=True)

    clean = ShardedGamma(graph, num_shards=2)
    reference = _task(clean)
    assert result.cliques == reference.cliques
    resumed_states = resumed.shard_states()
    clean_states = clean.shard_states()
    for i in range(2):
        assert resumed_states[i]["counters"] == clean_states[i]["counters"]
        assert (resumed_states[i]["clock_buckets"]
                == clean_states[i]["clock_buckets"])


def test_degradation_policy_targets_faulting_shard(graph):
    engine = ShardedGamma(graph, num_shards=2)
    engine.install_fault_plan(FaultPlan(
        name="pressure",
        specs=(FaultSpec(kind="device_oom", at="*/level:2", count=1),),
    ), shard=1)
    result = engine.run(_task, policy="halve-chunk")
    reference = _task(ShardedGamma(graph, num_shards=2))
    assert result.cliques == reference.cliques
    events = [e for e in engine.resilience_log if e["type"] == "degradation"]
    assert events and all(e["shard"] == 1 for e in events)


def test_mni_rejected_across_shards(graph):
    engine = ShardedGamma(graph, num_shards=2)
    with pytest.raises(ExecutionError, match="(?i)mni"):
        frequent_pattern_mining(engine, 2, 3, support_metric="mni")


@pytest.mark.parametrize("taken,resuming", [
    (taken, resuming) for taken in (1, 2, 4) for resuming in (1, 2, 4)
    if taken != resuming])
def test_resume_on_another_partition_count_is_refused(
        tmp_path, taken, resuming):
    """A checkpoint directory or an in-memory snapshot resumes only on the
    partition count that took it: another count would mine another frontier
    (4 -> 2 once found 28 of 29 4-cliques) or index past the snapshot."""
    graph = generators.erdos_renyi(300, 3000, seed=1)
    with Gamma(graph, num_shards=taken) as first:
        first.run(_task, checkpoint_dir=str(tmp_path))
        handed = first.snapshot()
    refused = rf"{taken} partition\(s\) but this engine has {resuming}\b"
    with Gamma(graph, num_shards=resuming) as engine:
        with pytest.raises(ExecutionError, match=refused):
            engine.run(_task, checkpoint_dir=str(tmp_path), resume=True)
    with Gamma(graph, num_shards=resuming) as engine:
        with pytest.raises(ExecutionError, match=refused):
            engine.run(_task, resume_state=handed)


def test_resume_under_another_policy_is_refused(graph, tmp_path):
    with Gamma(graph, num_shards=2, policy="static") as first:
        first.run(_task, checkpoint_dir=str(tmp_path))
    with Gamma(graph, num_shards=2, policy="degree") as engine:
        with pytest.raises(ExecutionError, match="under policy 'static'"):
            engine.run(_task, checkpoint_dir=str(tmp_path), resume=True)


def test_flat_one_gpu_checkpoint_is_refused_not_ignored(graph, tmp_path):
    """A directory from the older one-GPU layout (``<dir>/checkpoint.bin``,
    no ``shard-0``) must not silently restart from scratch."""
    from repro.resilience import CheckpointManager
    with Gamma(graph) as first:
        first.run(_task)
        CheckpointManager(str(tmp_path)).save(first.snapshot()[0])
    with Gamma(graph) as engine:
        with pytest.raises(ExecutionError, match="old flat layout"):
            engine.run(_task, checkpoint_dir=str(tmp_path), resume=True)


def test_a_version_2_snapshot_is_refused(graph):
    """Version 2 journaled no barrier or exchange reply and recorded a
    pair level as its arrays: refused by version, not misread."""
    with Gamma(graph) as first:
        first.run(_task)
        state = dict(first.snapshot()[0], version=2)
    with Gamma(graph) as engine:
        with pytest.raises(ExecutionError, match="state version 2"):
            engine.run(_task, resume_state=[state])


def test_snapshot_without_partition_record_is_refused(graph):
    with Gamma(graph) as first:
        first.run(_task)
        state = dict(first.snapshot()[0], version=1)
    del state["partition"]
    with Gamma(graph) as engine:
        with pytest.raises(ExecutionError, match="state version 1"):
            engine.run(_task, resume_state=[state])
