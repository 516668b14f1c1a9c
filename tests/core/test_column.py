"""A level is one column, whatever its source and state.

A level's rows come from one of three sources: arrays (``append_column``),
its parents' incident lists (a pair level, ``append_pair``) or a count
(``append_counted``).  Each cell below grows a level of one source into one
state — resident, spilled by policy, spilled at birth, compacted by mask or
by ``kept_rows``, mark-only filtered, deduplicated, snapshot and restored
through memory or a checkpoint file, released — and records what a reader
sees: the level's reads, every clock bucket and counter, the spill store's
billed bytes and the host bytes registered.

The three sources hold the same rows (the arrays are the pair level
expanded eagerly, the count is its length), so where a state applies to
all three their books agree.

A pair level also reaches two states of its own before the operation: it
is deduplicated (``dedup``), or deduplicated, aggregated and filtered by a
support threshold that drops some of its patterns (``support``), on a
labelled graph.  Those cells (``<source>/<place>/<prior>+<operation>``) run
on the arrays and pair sources, and their pins were recorded by a revision
whose pair level became arrays at dedup.

``column_pins.json`` holds every cell's record as the
four-class table of earlier revisions produced it; a cell that table could
not reach (mark-only filtering of a spilled level, a counted level filtered
mark-only) has no pin and its behaviour is asserted on its own, and a
spilled level compacted by ``kept_rows`` is held to the mask's record.
Re-record only for a cost-model change::

    PYTHONPATH=src python -m tests.core.test_column --record
"""

from __future__ import annotations

import json
import sys
import tempfile
from contextlib import ExitStack
from importlib import import_module
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.algorithms import frequent_pattern_mining, match_pattern_binary
from repro.core import Gamma, GammaConfig
from repro.core.embedding_table import EDGE, PAIR, Column, EmbeddingTable
from repro.core.filtering import MinSupport, filter_by_support, filter_rows
from repro.core.pattern_table import PatternTable
from repro.core.residence import GammaResidence
from repro.core.spill import SpillPolicy, SpillStore
from repro.errors import ExecutionError
from repro.graph import triangle
from repro.graph.generators import erdos_renyi
from repro.gpusim import make_platform
from repro.graph.canonical import QuickPatternEncoder
from repro.resilience.checkpoint import CheckpointManager
from tests.twins import pair_level_eagerly

aggregation = import_module("repro.core.aggregation")

PINS_PATH = Path(__file__).with_name("column_pins.json")

SOURCES = ("arrays", "pair", "count")
#: Where the level lives before the state's operation: in host memory,
#: pushed to disk by the policy once a level follows it, or streamed
#: straight to disk at birth (its table's spill budget is one byte).
PLACES = ("resident", "policy", "birth")
#: What is done to the level (``None``: nothing).
OPERATIONS = (None, "mask", "kept", "mark", "dedup", "memory", "disk",
              "released")
#: What the level went through as the last level before ``place`` put it
#: anywhere but memory: dedup, or dedup then a support filter.
PRIORS = ("dedup", "support")
#: Keeps six of the labelled graph's nine two-edge patterns.
SUPPORT_THRESHOLD = 10


def _graph():
    return erdos_renyi(12, 30, seed=4)


def _labelled_graph():
    return erdos_renyi(12, 30, seed=4, labels=3)


def _keep(n):
    return np.arange(n) % 3 != 0


def _eager_rows(graph):
    """The pair level's ``(values, parents)``, expanded eagerly."""
    platform = make_platform()
    table = EmbeddingTable(platform, EDGE, charged=False)
    table.seed(np.arange(graph.num_edges))
    pair_level_eagerly(table, table.column_values(0), graph)
    return table.column_values(1).copy(), table.column_parents(1).copy()


def _grown(source, place, graph, store=None):
    """A two-level edge table whose level 1 comes from ``source``, placed
    as ``place`` says (a third level follows it under ``policy``)."""
    platform = make_platform() if store is None else store.platform
    table = EmbeddingTable(platform, EDGE, name="t")
    values, parents = _eager_rows(graph)
    if place == "policy":
        # Both levels fit; the third pushes the first two to disk.
        budget = (graph.num_edges + len(values)) * 16
        table.attach_spill(store, SpillPolicy(budget, keep_columns=1))
    elif place == "birth":
        table.attach_spill(store, SpillPolicy(1, keep_columns=1))
    table.seed(np.arange(graph.num_edges))
    if source == "arrays":
        table.append_column(values, parents)
    elif source == "pair":
        # The seed's ids, not a read of it (which a spilled seed bills).
        table.append_pair(np.arange(graph.num_edges), graph)
    else:
        table.append_counted(len(values))
    if place == "policy":
        table.append_column(np.zeros(len(values), dtype=np.int64),
                            np.arange(len(values)))
    return table


def _through(table, prior, graph):
    """Dedup the last level; under ``support``, then aggregate it and drop
    the patterns below the threshold with their rows."""
    platform = table.platform
    aggregation.dedup_embeddings(platform, table)
    if prior == "support":
        residence = GammaResidence(platform, graph, 4)
        patterns = PatternTable()
        aggregation.aggregate_edge_table(
            platform, residence, table, QuickPatternEncoder(), patterns)
        filter_by_support(platform, table, patterns,
                          MinSupport(SUPPORT_THRESHOLD))


def _grown_through(source, place, prior, graph, store=None):
    """A two-level edge table whose level 1 comes from ``source`` and went
    through ``prior``, then was placed as ``place`` says: streamed to disk
    at birth (and after each filter), or pushed there with level 0 by a
    third level (a budget both first levels fit)."""
    platform = make_platform() if store is None else store.platform
    table = EmbeddingTable(platform, EDGE, name="t")
    if place == "birth":
        table.attach_spill(store, SpillPolicy(1, keep_columns=1))
    table.seed(np.arange(graph.num_edges))
    if source == "arrays":
        table.append_column(*_eager_rows(graph))
    else:
        table.append_pair(np.arange(graph.num_edges), graph)
    _through(table, prior, graph)
    if place == "policy":
        rows = table.num_embeddings
        table.attach_spill(store, SpillPolicy(
            (graph.num_edges + rows) * 16, keep_columns=1))
        table.append_column(np.zeros(rows, dtype=np.int64), np.arange(rows))
    return table


def _rows_through(source, prior, graph):
    """Level 1's ``(values, parents)`` after ``prior``, on a table of its
    own (so reading them bills nothing the cell sees)."""
    table = _grown_through(source, "resident", prior, graph)
    return table.column_values(1).copy(), table.column_parents(1).copy()


def _books(table, store):
    platform = table.platform
    return {
        "clock": {k: float.hex(v) for k, v in
                  sorted(platform.clock.snapshot().items())},
        "counters": {k: v for k, v in
                     sorted(platform.counters.snapshot().items())},
        "bytes_spilled": None if store is None else store.bytes_spilled,
        "host_used": platform.host_used,
        "spilled_columns": table.spilled_columns,
        "num_embeddings": table.num_embeddings,
        "depth": table.depth,
    }


def _reads(table):
    try:
        return [table.column_values(1).tolist(),
                table.column_parents(1).tolist()]
    except ExecutionError:
        return "ExecutionError"


def _restored(table, store, graph, through, workdir):
    """``table``'s snapshot restored into a fresh table on a fresh platform
    (with a store of its own where ``store`` is one)."""
    records = table.snapshot_columns()
    if through == "disk":
        manager = CheckpointManager(workdir)
        manager.save({"columns": records})
        records = manager.load()["columns"]
    other_store = None if store is None else SpillStore(make_platform())
    platform = make_platform() if other_store is None else other_store.platform
    other = EmbeddingTable(platform, EDGE, name="t")
    if other_store is not None:
        other.attach_spill(other_store, SpillPolicy(1, keep_columns=1))
    other.restore_columns(records, graph)
    return other, other_store


def cell(source, place, operation, workdir, prior=None):
    """One cell's record: its books after ``operation``, then its level-1
    reads (``{"error": name}`` if the operation raised)."""
    graph = _graph() if prior is None else _labelled_graph()
    with ExitStack() as stack:
        store = (None if place == "resident"
                 else stack.enter_context(SpillStore(make_platform())))
        try:
            table = (_grown(source, place, graph, store) if prior is None
                     else _grown_through(source, place, prior, graph, store))
        except ExecutionError:
            return {"error": "ExecutionError"}
        rows = (_eager_rows(graph) if prior is None
                else _rows_through(source, prior, graph))
        keep = _keep(len(rows[0]))
        try:
            if operation == "mask":
                table.compact(keep)
            elif operation == "kept":
                values, parents = rows
                table.compact(kept_rows=Column.of_arrays(values[keep],
                                                         parents[keep]))
            elif operation == "mark":
                filter_rows(table, keep, compact=False)
            elif operation == "dedup":
                aggregation.dedup_embeddings(table.platform, table)
            elif operation in ("memory", "disk"):
                table, other_store = _restored(table, store, graph,
                                               operation, workdir)
                if other_store is not None:
                    stack.callback(other_store.close)
                store = other_store
            elif operation == "released":
                table.release()
        except ExecutionError:
            return {"error": "ExecutionError"}
        record = _books(table, store)
        if operation != "released":
            record["reads"] = _reads(table)
        return record


def _applies(place, operation):
    """Under ``policy`` the level is not the last: nothing filters it."""
    return place != "policy" or operation in (None, "memory", "disk",
                                              "released")


def _cells():
    for source in SOURCES:
        for place in PLACES:
            for operation in OPERATIONS:
                if _applies(place, operation):
                    yield source, place, operation


def _key(source, place, operation, prior=None):
    if prior is not None:
        return f"{source}/{place}/{prior}+{operation or 'none'}"
    return f"{source}/{place}/{operation or 'none'}"


CELLS = list(_cells())
PRIOR_CELLS = [(source, place, operation, prior)
               for prior in PRIORS for source in ("arrays", "pair")
               for place in PLACES for operation in OPERATIONS
               if _applies(place, operation)]


def _pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("source,place,operation", CELLS, ids=[
    _key(*c) for c in CELLS])
def test_cell_matches_the_pin(source, place, operation, tmp_path):
    pins = _pins()
    key = _key(source, place, operation)
    got = cell(source, place, operation, str(tmp_path))
    if operation == "kept" and place == "birth":
        # ``kept_rows`` is billed as the mask it stands for, a spilled
        # level's fault included.  The four-class table skipped that fault
        # (no caller compacted a spilled level by its kept rows then).
        assert got == pins[_key(source, place, "mask")]
    elif key in pins:
        assert got == pins[key]
    else:
        # Cells the four-class table crashed on: mark-only filtering.  A
        # count raises; a spilled level is faulted back, filtered and placed
        # by the host budget as ``compact`` places it, unbilled.
        assert operation == "mark"
        if source == "count":
            assert got == {"error": "ExecutionError"}
        else:
            compacted = cell(source, place, "mask", str(tmp_path))
            for key in ("reads", "num_embeddings", "spilled_columns"):
                assert got[key] == compacted[key]


@pytest.mark.parametrize("source,place,operation,prior", PRIOR_CELLS, ids=[
    _key(*c[:3], c[3]) for c in PRIOR_CELLS])
def test_a_deduplicated_or_filtered_level_matches_the_pin(
        source, place, operation, prior, tmp_path):
    """Deduplicated, then perhaps support-filtered: every later state's
    books and reads are the pinned ones."""
    got = cell(source, place, operation, str(tmp_path), prior)
    assert got == _pins()[_key(source, place, operation, prior)]


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("operation", OPERATIONS)
def test_a_pair_level_bills_as_its_arrays(place, operation, tmp_path):
    """Billed, registered, spilled and journaled as its arrays: every
    state's books and reads agree."""
    if not _applies(place, operation):
        pytest.skip("the level is not the last")
    assert cell("pair", place, operation, str(tmp_path)) == cell(
        "arrays", place, operation, str(tmp_path))


@pytest.mark.parametrize("place", ["resident", "birth"])
def test_pair_dedup_takes_the_range_rule(place, tmp_path):
    """Resident or on disk, a pair level's dedup keeps first occurrences
    by the ranges of its parents' incident lists, and sorts nothing."""
    real = Column.deduplicated
    ranged = []

    def spy(column):
        ranged.append(real(column))
        return ranged[-1]

    with mock.patch.object(Column, "deduplicated", spy), \
            mock.patch.object(aggregation, "_sorted_keep",
                              side_effect=AssertionError("sorted")):
        cell("pair", place, "dedup", str(tmp_path))
    assert len(ranged) == 1


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("prior", PRIORS)
def test_dedup_and_support_leave_a_pair_level(place, prior):
    """Deduplicated, then support-filtered, a pair level is still its
    ranges — narrowed to the frequent triples, never expanded — resident,
    on disk, or pushed there by the next level."""
    graph = _labelled_graph()
    with ExitStack() as stack:
        store = (None if place == "resident"
                 else stack.enter_context(SpillStore(make_platform())))
        stack.enter_context(mock.patch.object(
            Column, "_expanded", side_effect=AssertionError("expanded")))
        table = _grown_through("pair", place, prior, graph, store)
        level = table.columns[1]
        assert level.source == PAIR and level.deduped
        assert level.on_disk == (place != "resident")
        assert (level.kept is not None) == (prior == "support")
    assert len(level) == len(_rows_through("arrays", prior, graph)[0])


def test_a_restored_level_on_disk_holds_its_source(tmp_path):
    """Restored to disk, a level's file is its source: the packed arrays,
    a pair level's level-1 ids, and nothing for a count."""
    graph = _graph()
    seed = 2 * graph.num_edges * 8
    rows = len(_eager_rows(graph)[0])
    on_disk = {"arrays": seed + 2 * rows * 8,
               "pair": seed + graph.num_edges * 8, "count": seed}
    for source in SOURCES:
        with SpillStore(make_platform()) as store:
            table = _grown(source, "birth", graph, store)
            other, other_store = _restored(table, store, graph, "memory",
                                           str(tmp_path))
            try:
                assert other.spilled_columns == 2
                assert other_store.bytes_spilled == 0
                assert other_store.bytes_on_disk == on_disk[source]
            finally:
                other_store.close()


_MARK_ONLY_TASKS = {
    "fpm": lambda engine: frequent_pattern_mining(engine, 2, 1).patterns,
    "binary-join": lambda engine: match_pattern_binary(
        engine, triangle()).embeddings,
}


@pytest.mark.parametrize("task", sorted(_MARK_ONLY_TASKS))
def test_mark_only_filtering_runs_on_spilled_levels(task):
    """A no-compaction engine whose levels spill (a 64-byte host budget)
    filters them mark-only and finds what a resident one finds."""
    graph = erdos_renyi(200, 2000, seed=1)
    run = _MARK_ONLY_TASKS[task]
    with Gamma(graph, GammaConfig(compaction=False)) as engine:
        want = run(engine)
    with Gamma(graph, GammaConfig(
            compaction=False, spill_to_disk=True, spill_budget_bytes=64,
            spill_keep_columns=1)) as engine:
        got = run(engine)
        assert engine.shards[0]._spill_store.bytes_spilled > 0
    assert got == want and want


def _record() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        pins = {}
        for source, place, operation in CELLS:
            try:
                pins[_key(source, place, operation)] = cell(
                    source, place, operation, workdir)
            except Exception as error:  # noqa: BLE001 - no value to pin
                print(f"{_key(source, place, operation)}: "
                      f"{type(error).__name__}: {error}")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pins)} cells in {PINS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        print(__doc__)
