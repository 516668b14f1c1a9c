"""Hypothesis properties for the byte-deterministic checkpoint format.

The archive format promises ``serialize_state(deserialize_state(b)) == b``
for any well-formed archive (no zip timestamps, canonical JSON header,
deterministic array ordering) — that byte determinism is what lets the
crash-matrix suite compare checkpoints directly.  A second battery pins
the partition invariant: a checkpoint's counters are a prefix of the
final totals, exactly like a span's self-time partitions its parent.  A
third pins that a snapshot handed over in memory and the same snapshot
taken through the archive resume to the same engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms import (
    count_kcliques,
    frequent_pattern_mining,
    match_pattern,
    motif_count,
)
from repro.core.embedding_table import EmbeddingTable
from repro.core.framework import Gamma
from repro.errors import DeviceOutOfMemory, QueryPreempted
from repro.graph import sm_query
from repro.graph.generators import erdos_renyi
from repro.gpusim import make_platform
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience import runner as res_runner
from repro.resilience.checkpoint import (
    MAGIC,
    CheckpointManager,
    deserialize_state,
    serialize_state,
)
from repro.shard import ShardedGamma

# ---------------------------------------------------------------------------
# Strategies: arbitrary checkpoint-shaped states
# ---------------------------------------------------------------------------

_arrays = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.int32, np.float64, np.uint8,
                           np.bool_]),
    shape=hnp.array_shapes(max_dims=2, max_side=6),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_values = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)
_states = st.dictionaries(st.text(max_size=8), _values, max_size=5)


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype):
            return False
        # NaNs round-trip bit-exactly but compare unequal to themselves.
        equal_nan = a.dtype.kind == "f"
        return np.array_equal(a, b, equal_nan=equal_nan)
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_equal(a[k], b[k]) for k in a))
    if isinstance(a, list) and isinstance(b, list):
        return (len(a) == len(b)
                and all(_equal(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


class TestArchiveRoundTrip:
    @given(_states)
    @settings(max_examples=60, deadline=None)
    def test_reserialization_is_byte_identical(self, state):
        blob = serialize_state(state)
        assert serialize_state(deserialize_state(blob)) == blob

    @given(_states)
    @settings(max_examples=60, deadline=None)
    def test_values_survive_round_trip(self, state):
        assert _equal(deserialize_state(serialize_state(state)), state)

    @given(_states)
    @settings(max_examples=30, deadline=None)
    def test_serialization_is_deterministic(self, state):
        assert serialize_state(state) == serialize_state(state)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            deserialize_state(b"NOTACKPT" + b"\0" * 32)

    def test_trailing_bytes_rejected(self):
        blob = serialize_state({"a": 1})
        with pytest.raises(ValueError, match="trailing"):
            deserialize_state(blob + b"\0")

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            serialize_state({"outer": {3: "x"}})

    def test_magic_prefix(self):
        assert serialize_state({}).startswith(MAGIC)


class TestEmbeddingTableStates:
    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=0, max_size=5),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_et_state_round_trip(self, lengths, seed):
        """Arbitrary ET contents: snapshot -> archive -> restore into a
        fresh table -> re-snapshot serializes to identical bytes."""
        rng = np.random.default_rng(seed)
        records = [
            {
                "values": rng.integers(0, 1 << 40, size=n, dtype=np.int64),
                "parents": rng.integers(0, max(1, n), size=n,
                                        dtype=np.int64),
                "spilled": False,
            }
            for n in lengths
        ]
        source = EmbeddingTable(make_platform(), name="src")
        source.restore_columns(records)
        blob = serialize_state({"columns": source.snapshot_columns()})

        target = EmbeddingTable(make_platform(), name="dst")
        target.restore_columns(deserialize_state(blob)["columns"])
        assert serialize_state(
            {"columns": target.snapshot_columns()}) == blob
        assert target.num_embeddings == source.num_embeddings


class TestEngineStates:
    def test_captured_engine_state_round_trips(self, tmp_path):
        """A real mid-run engine snapshot survives the archive and the
        on-disk manager byte-for-byte."""
        engine = Gamma(erdos_renyi(120, 900, seed=2))
        engine.enable_checkpointing()
        count_kcliques(engine, 3)
        state = res_runner.capture_state(engine)
        engine.close()

        blob = serialize_state(state)
        assert serialize_state(deserialize_state(blob)) == blob

        # A manager that has not saved has made nothing, not even its
        # directory; the first save makes it, and what it writes array by
        # array is the archive byte for byte.
        manager = CheckpointManager(str(tmp_path / "deep" / "ckpt"))
        assert manager.load() is None
        assert not (tmp_path / "deep").exists()
        assert manager.save(state) == len(blob)
        assert (tmp_path / "deep" / "ckpt" / "checkpoint.bin"
                ).read_bytes() == blob
        loaded = manager.load()
        assert serialize_state(loaded) == blob
        manager.clear()
        assert manager.load() is None


_DRIVERS = {
    "kcl": lambda engine, hook: count_kcliques(engine, 4, level_hook=hook),
    "sm": lambda engine, hook: match_pattern(
        engine, sm_query(2), level_hook=hook),
    "fpm": lambda engine, hook: frequent_pattern_mining(
        engine, 2, 3, level_hook=hook),
    "motifs": lambda engine, hook: motif_count(engine, 3, level_hook=hook),
}


def _archives(engine) -> list:
    """The engine's snapshot(s) as archive bytes, one per shard."""
    snapshot = engine.snapshot()
    states = snapshot if isinstance(snapshot, list) else [snapshot]
    return [serialize_state(state) for state in states]


class TestHandOverRoutes:
    @given(family=st.sampled_from(sorted(_DRIVERS)),
           stage=st.integers(min_value=1, max_value=3),
           shards=st.sampled_from([1, 2]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=12, deadline=None)
    def test_memory_and_archive_resume_identically(
            self, family, stage, shards, seed):
        """Suspend after a random op prefix; the snapshot itself and its
        round trip through the archive resume to byte-identical engines."""
        graph = erdos_renyi(40, 160, seed=seed, labels=3)
        drive = _DRIVERS[family]

        def engine():
            return (Gamma(graph) if shards == 1 else
                    ShardedGamma(graph, num_shards=shards, executor="serial"))

        calls = []

        def suspend(info):
            calls.append(info)
            if len(calls) == stage:
                raise QueryPreempted(level=stage)

        with engine() as first:
            with pytest.raises(QueryPreempted):
                first.run(lambda e: drive(e, suspend))
            handed = first.snapshot()
            blobs = _archives(first)
        thawed = [deserialize_state(blob) for blob in blobs]
        outcomes = []
        for state in (handed, thawed if shards > 1 else thawed[0]):
            with engine() as resumed:
                result = resumed.run(lambda e: drive(e, None),
                                     resume_state=state)
                outcomes.append((result, _archives(resumed)))
        (by_memory, memory_end), (by_archive, archive_end) = outcomes
        assert by_memory == by_archive
        # Tables, clock buckets, counters, planners, journal: every byte.
        assert memory_end == archive_end


class TestCounterPartition:
    def test_resumed_counters_partition_final_totals(self, tmp_path):
        """The checkpoint splits every counter into before/after: the
        checkpointed value is a prefix of the resumed run's final total,
        and the total matches the uninterrupted run exactly — the same
        self-delta discipline obs spans keep with their parents."""
        graph_args = dict(num_vertices=300, num_edges=3600, seed=3)
        ckpt = tmp_path / "ckpt"

        engine = Gamma(erdos_renyi(**graph_args))
        engine.platform.install_fault_plan(FaultPlan(
            name="crash",
            specs=(FaultSpec(kind="device_oom", at="*/level:3"),)))
        with pytest.raises(DeviceOutOfMemory):
            engine.run(lambda e: count_kcliques(e, 4), checkpoint_dir=ckpt)
        engine.close()

        at_checkpoint = CheckpointManager(str(ckpt)).load()["counters"]

        resumed = Gamma(erdos_renyi(**graph_args))
        resumed.run(lambda e: count_kcliques(e, 4),
                    checkpoint_dir=ckpt, resume=True)
        final = resumed.platform.counters.snapshot(include_zero=True)
        resumed.close()

        reference = Gamma(erdos_renyi(**graph_args))
        count_kcliques(reference, 4)
        uninterrupted = reference.platform.counters.snapshot(
            include_zero=True)
        reference.close()

        assert final == uninterrupted
        assert set(at_checkpoint) <= set(final)
        assert all(at_checkpoint[name] <= final[name]
                   for name in at_checkpoint)
        # The crash hit mid-run, so the post-resume leg did real work.
        assert any(at_checkpoint[name] < final[name]
                   for name in at_checkpoint)
