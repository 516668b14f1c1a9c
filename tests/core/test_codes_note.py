"""Aggregation's codes stay on the level they describe.

``PT <- Aggregation(ET, m_f)`` leaves the last level's canonical codes on
its column (:class:`repro.core.embedding_table.Codes`), and
``Filtering(ET, PT, constraint)`` reads them there.  Nothing else carries
them: no driver argument, no op reply, no journal entry.  So a query
suspended between an aggregation and its filter resumes from the level's
snapshot record alone — an arrays level (FPM level 1) and a pair level
counted from its ranges (FPM-2 level 2), over disk and in memory, on one
partition and on two on either executor — and lands on the uninterrupted
run: answers, ``float.hex`` of the simulated seconds, every clock bucket
and every counter.  A level no aggregation counted has no codes, and its
support filter is a typed error, never a per-row lookup.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms import frequent_pattern_mining
from repro.core import Gamma
from repro.core.filtering import MinSupport
from repro.core.pattern_table import PatternTable
from repro.errors import DeviceOutOfMemory, ExecutionError
from repro.graph.generators import erdos_renyi
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.runner import STATE_VERSION
from repro.shard.executor import SERIAL_EXECUTOR, default_executor

GRAPH = erdos_renyi(90, 600, seed=3, labels=4)
THRESHOLD = 8

#: Where a fault on partition 0 stops the query: as the support filter of
#: the last level starts, so the last snapshot is the aggregation's (level
#: 1's codes are per row, level 2's per wedge triple).  Per partition
#: count, the filtering phases before it: at two partitions the level-1
#: table is restricted to its owned edges, and dedup's reconcile filters
#: level 2 by a mask.
SUSPENSIONS = {"arrays-level-1": (1, {1: 0, 2: 1}),
               "pair-level-2": (2, {1: 1, 2: 3})}

#: ``(partitions, executor)``; ``None`` is the executor the environment
#: selects.
ENGINES = {"one": (1, None), "two-serial": (2, "serial"),
           "two-process": (2, "process")}


def _in_process(executor) -> bool:
    return (executor or default_executor()) == SERIAL_EXECUTOR


def _fpm(iterations):
    return lambda engine: frequent_pattern_mining(engine, iterations, THRESHOLD)


def _outcome(engine, result):
    """The answer, the simulated seconds and every partition's books."""
    return (result.patterns, result.frequent_per_level,
            float.hex(engine.simulated_seconds),
            [(state["clock_buckets"], state["counters"])
             for state in engine.shard_states()])


@pytest.fixture()
def asked(monkeypatch):
    """``(codes handed, patterns held)`` per ``PatternTable.support_of``
    call in this process."""
    calls = []
    real = PatternTable.support_of

    def support_of(self, codes):
        calls.append((len(codes), len(self)))
        return real(self, codes)

    monkeypatch.setattr(PatternTable, "support_of", support_of)
    return calls


@pytest.mark.parametrize("route", ["memory", "disk"])
@pytest.mark.parametrize("engine_id", sorted(ENGINES))
@pytest.mark.parametrize("where", sorted(SUSPENSIONS))
def test_a_resume_between_aggregation_and_filter(where, engine_id, route,
                                                 tmp_path, asked):
    iterations, earlier = SUSPENSIONS[where]
    shards, executor = ENGINES[engine_id]
    journal = str(tmp_path) if route == "disk" else None
    spec = FaultSpec(kind="device_oom", at="*/phase:filtering",
                     after=earlier[shards])
    with Gamma(GRAPH, num_shards=shards, executor=executor) as first:
        first.install_fault_plan(FaultPlan(name="stop", specs=(spec,)))
        with pytest.raises(DeviceOutOfMemory):
            first.run(_fpm(iterations), checkpoint_dir=journal)
        handed = first.snapshot()
    # Partition 0 stopped before its filter: its level holds the codes, and
    # its journal none.
    state = handed[0]
    level = state["tables"][0]["columns"][-1]
    assert state["version"] == STATE_VERSION == 4
    # A pair level's codes are per triple.  At two partitions dedup's
    # reconcile filter leaves level 2 as arrays, whose codes are per row.
    assert ("first" in level) == (where == "pair-level-2" and shards == 1)
    assert (level["codes"]["triples"] is not None) == ("first" in level)
    kinds = [record["kind"] for record in state["journal"]]
    assert kinds.count("aggregation") == iterations
    assert kinds.count("filtering") == earlier[shards]
    for record in state["journal"]:
        if record["kind"] == "aggregation":
            assert set(record["payload"]) == {"pt_codes", "pt_supports"}

    del asked[:]
    with Gamma(GRAPH, num_shards=shards, executor=executor) as second:
        resumed = _outcome(second, second.run(
            _fpm(iterations), checkpoint_dir=journal, resume=True,
            resume_state=None if journal else handed))
    if _in_process(executor):
        # The resumed filter looked each distinct pattern up once: never an
        # array the length of the level (which holds more rows than the
        # pattern table holds patterns).
        assert asked and all(handed <= held for handed, held in asked)
    with Gamma(GRAPH, num_shards=shards, executor=executor) as whole:
        uninterrupted = _outcome(whole, _fpm(iterations)(whole))
    assert resumed == uninterrupted
    assert uninterrupted[1][-1] > 0


@pytest.mark.parametrize("engine_id", sorted(ENGINES))
def test_a_support_filter_after_an_extension_raises(engine_id):
    """The codes went with the level they describe: the next level has
    none, so its support filter raises rather than look rows up."""
    shards, executor = ENGINES[engine_id]
    with Gamma(GRAPH, num_shards=shards, executor=executor) as engine:
        table = engine.new_edge_table()
        engine.seed_edges(table)
        patterns = PatternTable()
        engine.aggregation(table, patterns)
        engine.edge_extension(table)
        with pytest.raises(ExecutionError, match="not aggregated"):
            engine.filtering(table, pattern_table=patterns,
                             constraint=MinSupport(1))


def test_a_version_3_snapshot_is_refused():
    """Version 3 held an aggregation's codes only in its journal entry: a
    snapshot taken before the filter would resume with none."""
    with Gamma(GRAPH) as first:
        first.run(_fpm(1))
        state = dict(first.snapshot()[0], version=3)
    with Gamma(GRAPH) as engine:
        with pytest.raises(ExecutionError, match="state version 3"):
            engine.run(_fpm(1), resume_state=[state])


def test_no_per_row_codes_reach_the_front():
    """On the process executor an aggregation's reply, and its journal
    entry, is the partition's pattern-table contribution alone: its pickled
    size follows the patterns, not the level's rows."""
    sizes, rows = [], []
    for edges in (400, 1600):
        graph = erdos_renyi(200, edges, seed=7, labels=2)
        with Gamma(graph, num_shards=2, executor="process") as engine:
            engine.run(lambda inner: frequent_pattern_mining(inner, 2, 1))
            states = engine.snapshot()
        payloads = [record["payload"] for state in states
                    for record in state["journal"]
                    if record["kind"] == "aggregation"]
        assert len(payloads) == 4 and all(
            set(payload) == {"pt_codes", "pt_supports"} for payload in payloads)
        sizes.append(sorted(len(pickle.dumps(p)) for p in payloads))
        # Level 1's rows: every edge, split between the partitions.
        rows.append(sum(len(state["tables"][0]["columns"][0]["values"])
                        for state in states))
    assert rows == [400, 1600]
    assert sizes[0] == sizes[1]  # every labelled pattern occurs in both


def test_one_partition_reads_are_its_own_arrays():
    """With one partition, a column read hands out the partition's own
    arrays rather than a concatenated copy."""
    with Gamma(GRAPH, executor=SERIAL_EXECUTOR) as engine:
        table = engine.new_vertex_table()
        engine.seed_vertices(table)
        engine.vertex_extension(table, [0])
        part = table.parts[0]
        for level in range(table.depth):
            assert np.shares_memory(table.column_values(level),
                                    part.column_values(level))
            assert np.shares_memory(table.column_parents(level),
                                    part.column_parents(level))
        np.testing.assert_array_equal(table.materialize(), part.materialize())
