"""The scheduler contract, pinned as properties (docs/SERVING.md):

(a) **Streaming == batch.**  For every completed query, folding the
    streamed per-level partials yields exactly the batch result the same
    driver produces on a standalone engine — and both agree with the
    DFS oracles in ``tests/oracle.py``.
(b) **Fairness.**  Replaying the queue trace of an end-to-end threaded
    run, no tenant is ever scheduled beyond ``share + 1`` in flight.
(c) **Preempt/resume is invisible.**  A query preempted mid-run and
    resumed from its op-journal snapshot produces the bit-identical
    result payload and partial records of an uninterrupted run — over
    each hand-over route: one and two partitions on the serial executor
    through a pickled snapshot, two on the process executor on disk.
(d) **Disk is for processes that can die on their own.**  An
    unpreempted in-slot query never serialises or writes its journal; a
    query on worker processes writes it through after every op.

Each property is pinned on both the serial and the process shard
executor (the Hypothesis corpus runs serial; fixed cases cover process).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.core.framework import Gamma
from repro.graph import from_edges, sm_query, zipf_labels
from repro.resilience.checkpoint import CheckpointManager
from repro.serve import (
    QuerySpec,
    Scheduler,
    ServeConfig,
    fold_partials,
    result_payload,
    run_query,
)
from repro.serve.slot import Slot
from tests.oracle import (
    kclique_count_ref,
    motif_histogram_ref,
    sm_embedding_count_ref,
)
from tests.serve.conftest import stream_payloads

SLOW = settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])

EXECUTORS = [
    pytest.param("serial", 1, id="local-1gpu"),
    pytest.param("serial", 2, id="serial-2shard"),
    pytest.param("process", 2, id="process-2shard"),
]


@hst.composite
def random_graphs(draw, max_vertices=16, max_edges=40, max_labels=3):
    n = draw(hst.integers(min_value=6, max_value=max_vertices))
    m = draw(hst.integers(min_value=8, max_value=max_edges))
    seed = draw(hst.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    labels = zipf_labels(n, max_labels, seed=seed)
    return from_edges(src, dst, num_vertices=n, labels=labels)


@hst.composite
def query_specs(draw, **overrides):
    family = draw(hst.sampled_from(("kcl", "sm", "motifs", "fpm")))
    params = {}
    if family == "kcl":
        params["k"] = draw(hst.integers(3, 5))
    elif family == "sm":
        params["query"] = draw(hst.integers(1, 3))
        params["symmetry_breaking"] = draw(hst.booleans())
    elif family == "motifs":
        params["num_edges"] = draw(hst.integers(2, 3))
    else:
        params["iterations"] = draw(hst.integers(1, 2))
        params["min_support"] = draw(hst.integers(2, 12))
    params.update(overrides)
    return QuerySpec(family=family, dataset="G", **params)


def batch_payload(graph, spec):
    """The batch oracle: the same driver on a standalone engine."""
    engine = Gamma(graph, num_shards=spec.gpus, policy=spec.shard_policy,
                   executor="serial")
    try:
        return result_payload(spec, run_query(engine, spec))
    finally:
        engine.close()


def _strip_volatile(payload):
    return {key: value for key, value in payload.items()
            if key != "simulated_seconds"}


def serve_one(graph, spec, on_stage=None, slots=1):
    scheduler = Scheduler(ServeConfig(slots=slots), graphs={"G": graph})
    try:
        state = scheduler.submit(spec)
        scheduler.run_until_idle(on_stage=on_stage)
        return state, stream_payloads(state, "partial")
    finally:
        scheduler.close()


def assert_stream_matches_batch(graph, spec):
    state, partials = serve_one(graph, spec)
    assert state.status == "completed", state.error
    batch = batch_payload(graph, spec)
    assert _strip_volatile(state.result) == _strip_volatile(batch)
    # The fold of the streamed partials is the batch result, field for
    # field — the stream is a prefix view of the computation.
    folded = fold_partials(spec, partials)
    assert folded
    for key, value in folded.items():
        if key in batch:
            assert value == batch[key], key
    # And both agree with the DFS references where one exists.
    if spec.family == "kcl":
        assert batch["cliques"] == kclique_count_ref(graph, spec.k)
    elif spec.family == "motifs":
        ref = motif_histogram_ref(graph, spec.num_edges)
        assert batch["histogram"] == {
            str(code): count for code, count in ref.items()}
    elif spec.family == "sm":
        pattern = sm_query(spec.query)
        ref = sm_embedding_count_ref(graph, pattern)
        if spec.symmetry_breaking:
            # Each subgraph once, not once per automorphic image.
            ref //= pattern.automorphism_count()
        assert batch["embeddings"] == ref
    return state


# -- (a) streaming == batch ---------------------------------------------------
@SLOW
@given(graph=random_graphs(), spec=query_specs())
def test_stream_parity_hypothesis(graph, spec):
    assert_stream_matches_batch(graph, spec)


@pytest.mark.parametrize("executor,gpus", EXECUTORS)
@pytest.mark.parametrize("family,params", [
    ("kcl", {"k": 4}),
    ("sm", {"query": 1}),
    ("motifs", {"num_edges": 2}),
    ("fpm", {"iterations": 2, "min_support": 8}),
])
def test_stream_parity_matrix(er_graph, executor, gpus, family, params):
    spec = QuerySpec(family=family, dataset="G", gpus=gpus,
                     executor=executor, **params)
    state = assert_stream_matches_batch(er_graph, spec)
    assert state.executor_used == executor


def test_partials_stream_in_level_order(er_graph):
    spec = QuerySpec(family="kcl", k=5, dataset="G")
    _, partials = serve_one(er_graph, spec)
    assert [p["n"] for p in partials] == list(range(1, len(partials) + 1))
    assert [p["level"] for p in partials] == \
        list(range(1, len(partials) + 1))


# -- (b) fairness -------------------------------------------------------------
@pytest.mark.parametrize("executor,gpus", EXECUTORS)
def test_threaded_run_respects_fair_shares(er_graph, executor, gpus):
    scheduler = Scheduler(ServeConfig(slots=2), graphs={"G": er_graph})
    try:
        states = [
            scheduler.submit(QuerySpec(
                family="kcl", k=3, dataset="G", tenant=f"t{t}",
                gpus=gpus, executor=executor))
            for t in range(3) for _ in range(3)
        ]
        scheduler.start()
        assert scheduler.wait_idle(timeout=120.0)
    finally:
        scheduler.close()
    assert all(s.status == "completed" for s in states)
    acquires = [ev for ev in scheduler.queue.trace
                if ev["event"] == "acquire"]
    assert len(acquires) >= len(states)
    for event in acquires:
        inflight = event["inflight"][event["tenant"]]
        assert inflight <= event["share"] + 1
        assert inflight <= 2  # the default per-tenant max_inflight


# -- (c) preempt/resume bit-parity --------------------------------------------
def _preemption_run(graph, spec, preempt_stage, held=None):
    """Run ``spec`` at low priority; inject a high-priority query at
    ``preempt_stage`` (or never, when None).  ``held`` collects the
    victim's ``resume_state`` as seen while the preemptor runs."""
    scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": graph})
    try:
        low = scheduler.submit(spec)
        fired = []

        def on_stage(state, stage, info):
            if (preempt_stage is not None and not fired
                    and state.id == low.id and stage == preempt_stage):
                fired.append(stage)
                scheduler.submit(QuerySpec(
                    family="motifs", num_edges=2, dataset="G",
                    tenant="urgent", priority=9))
            elif held is not None and state.id != low.id:
                held.append(low.resume_state)

        scheduler.run_until_idle(on_stage=on_stage)
        states = scheduler.queue.states()
        return low, stream_payloads(low, "partial"), states
    finally:
        scheduler.close()


@SLOW
@given(graph=random_graphs(), preempt_stage=hst.integers(1, 3),
       k=hst.integers(4, 5))
def test_preempt_resume_bit_identical_hypothesis(graph, preempt_stage, k):
    spec = QuerySpec(family="kcl", k=k, dataset="G", tenant="lo",
                     priority=0)
    base, base_partials, _ = _preemption_run(graph, spec, None)
    assert base.status == "completed"
    bumped, bumped_partials, states = _preemption_run(
        graph, spec, preempt_stage)
    assert bumped.status == "completed"
    assert bumped.preemptions >= 1 and bumped.resumes >= 1
    assert bumped.result == base.result  # bit-identical, clock included
    assert bumped_partials == base_partials
    # The preemptor ran to completion first.
    urgent = next(s for s in states if s.spec.tenant == "urgent")
    assert urgent.status == "completed"
    assert urgent.finished_mono <= bumped.finished_mono


@pytest.mark.parametrize("executor,gpus", EXECUTORS)
def test_preempt_resume_bit_identical_matrix(er_graph, executor, gpus):
    spec = QuerySpec(family="kcl", k=5, dataset="G", tenant="lo",
                     priority=0, gpus=gpus, executor=executor)
    base, base_partials, _ = _preemption_run(er_graph, spec, None)
    bumped, bumped_partials, _ = _preemption_run(er_graph, spec, 2)
    assert base.status == bumped.status == "completed"
    assert bumped.preemptions >= 1
    assert bumped.result == base.result
    assert bumped_partials == base_partials
    assert bumped.billing["simulated_seconds"] == \
        base.billing["simulated_seconds"]
    # The route taken: only worker processes hand over through disk.
    assert (bumped.checkpoint_dir is not None) == (executor == "process")
    assert bumped.resume_state is None  # dropped with the query


def test_preemption_disabled_never_yields(er_graph):
    scheduler = Scheduler(ServeConfig(slots=1, preemption=False),
                          graphs={"G": er_graph})
    try:
        low = scheduler.submit(QuerySpec(family="kcl", k=5, dataset="G",
                                         tenant="lo"))

        def on_stage(state, stage, info):
            if state.id == low.id and stage == 1:
                if scheduler.queue.pending_count() == 0:
                    scheduler.submit(QuerySpec(
                        family="motifs", num_edges=2, dataset="G",
                        tenant="hi", priority=9))

        scheduler.run_until_idle(on_stage=on_stage)
        assert low.preemptions == 0 and low.status == "completed"
    finally:
        scheduler.close()


# -- (d) disk is for processes that can die -----------------------------------
def _snapshot_pairs(engine):
    """(snapshot, live partition) per partition of a serial-backed engine."""
    return list(zip(engine.snapshot(), engine.shards))


@pytest.mark.parametrize("gpus", [1, 2])
def test_in_process_query_does_no_journal_work(
        er_graph, tmp_path, monkeypatch, inline_slots, gpus):
    """Work counts, no clock: zero saves, no file, and the snapshot the
    query would resume from holds the live columns themselves (the
    counted last level, its length alone).  The slot runs on a thread,
    so the spies below see its engine."""
    saves = []
    monkeypatch.setattr(CheckpointManager, "save",
                        lambda self, state: saves.append(self.path))
    shared = []
    close_engine = Slot._close_engine

    def inspect_then_close(self, engine, key, pool):
        for snapshot, live in _snapshot_pairs(engine):
            for record, table in zip(snapshot["tables"], live._tables):
                assert len(record["columns"]) == table.depth > 0
                for held, column in zip(record["columns"], table.columns):
                    shared.append(
                        len(column) == 0  # nothing to share (or to copy)
                        or held.get("counted") == len(column)  # nor here
                        or np.shares_memory(held["values"], column.values)
                        and np.shares_memory(held["parents"],
                                             column.parents))
        close_engine(self, engine, key, pool)

    monkeypatch.setattr(Slot, "_close_engine", inspect_then_close)
    workdir = tmp_path / "serve"
    workdir.mkdir()
    scheduler = Scheduler(ServeConfig(slots=1, workdir=str(workdir)),
                          graphs={"G": er_graph})
    try:
        state = scheduler.submit(QuerySpec(
            family="kcl", k=4, dataset="G", gpus=gpus, executor="serial"))
        scheduler.run_until_idle()
        assert state.status == "completed", state.error
        assert saves == []
        assert os.listdir(workdir) == []
        assert shared and all(shared)
        assert state.checkpoint_dir is None
    finally:
        scheduler.close()


def test_process_query_journals_every_op_durably(er_graph, tmp_path):
    workdir = tmp_path / "serve"
    scheduler = Scheduler(ServeConfig(slots=1, workdir=str(workdir)),
                          graphs={"G": er_graph})
    journaled = {0: [], 1: []}

    def on_stage(state, stage, info):
        for shard, ops in journaled.items():
            saved = CheckpointManager(os.path.join(
                state.checkpoint_dir, f"shard-{shard}")).load()
            ops.append(saved["op_count"])

    try:
        state = scheduler.submit(QuerySpec(
            family="kcl", k=4, dataset="G", gpus=2, executor="process"))
        scheduler.run_until_idle(on_stage=on_stage)
        assert state.status == "completed", state.error
    finally:
        scheduler.close()
    for ops in journaled.values():
        # One stage per level; every level is at least one more op on disk.
        assert len(ops) == 4 and ops[0] >= 2
        assert all(later > earlier for earlier, later in zip(ops, ops[1:]))
    assert not os.path.exists(state.checkpoint_dir)  # removed with the query


@pytest.mark.parametrize("fault_plan,outcome", [
    (None, "completed"),
    # Fires on the resumed attempt; no degradation policy, so it fails.
    ({"name": "tight", "specs": [
        {"kind": "device_oom", "at": "*/level:3/io:pool:alloc",
         "count": 1}]}, "failed"),
])
def test_snapshot_lives_exactly_as_long_as_the_suspension(
        er_graph, fault_plan, outcome):
    held = []
    # In memory, as the other in-memory cases: a process executor's
    # suspension is its op journal on disk, not a held snapshot.
    low, __, ___ = _preemption_run(er_graph, QuerySpec(
        family="kcl", k=5, dataset="G", tenant="lo", executor="serial",
        fault_plan=fault_plan), 2, held)
    assert low.preemptions == 1 and low.resumes == 1
    assert held and all(state is not None for state in held)
    assert low.status == outcome, low.error
    assert low.resume_state is None  # no table outlives its query
