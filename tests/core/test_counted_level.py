"""A counting query's last level is only a length, and vertex extension
holds one row batch of expansion at a time.

Three sets, one per claim:

* **Journal round trips** — a :class:`CountedColumn` through
  ``snapshot_columns`` / ``restore_columns`` and ``CheckpointManager``
  files, a served query preempted at its last level and resumed, and the
  process-shard durable path: each lands on the uninterrupted run's answer
  and ``float.hex`` of its simulated time.
* **The differential suite** — the counted arm against ``keep_table=True``
  with the batch budget lowered so every level takes many batches and hub
  rows exceed it: answers, simulated-time bits, counters and
  ``peak_memory_bytes`` equal, and the kept tables equal to a one-batch
  run's row for row.
* **The clock-free guard** — no expansion inside ``extend_vertices`` is
  longer than the budget unless it is one row's, and a counted tail-free
  level expands nothing.
"""

import numpy as np
import pytest

from repro.algorithms import count_kcliques, match_pattern
from repro.baselines import PangolinGPU
from repro.core import Gamma, GammaConfig, extension
from repro.core.embedding_table import CountedColumn, EmbeddingTable
from repro.core.extension import ExtensionEngine
from repro.core.spill import SpillPolicy, SpillStore
from repro.errors import ExecutionError
from repro.graph import from_edges, sm_query
from repro.graph.generators import erdos_renyi
from repro.graph.patterns import Pattern
from repro.gpusim import make_platform
from repro.resilience.checkpoint import (
    CheckpointManager,
    deserialize_state,
    serialize_state,
)
from repro.serve import QuerySpec, Scheduler, ServeConfig
from repro.shard import ShardedGamma
from repro.shard.policy import SHARD_POLICIES

#: Lowered batch budget: most levels over the graph below take many
#: batches, and rows expanding its hub's list exceed it alone.
SMALL_BUDGET = 32


@pytest.fixture(scope="module")
def graph():
    """A labelled random graph with vertex 0 made a hub of degree 42, on
    which every task below finds something."""
    base = erdos_renyi(48, 200, seed=2, labels=8)
    spokes = np.random.default_rng(2).choice(np.arange(1, 48), 40, replace=False)
    return from_edges(
        np.concatenate([base.edge_src, np.zeros(40, dtype=np.int64)]),
        np.concatenate([base.edge_dst, spokes]),
        num_vertices=48, labels=base.labels)


def _sm(query, shape):
    pattern = sm_query(query)
    if shape == "unlabelled":
        pattern = Pattern(pattern.edges, name=f"{pattern.name}-unlabelled")
    return pattern


def _task(task, keep_table):
    """``engine -> (answer, result, table or None)`` for one task."""
    kind, arg, shape = task

    def run(engine):
        if kind == "kcl":
            out = count_kcliques(engine, arg, keep_table=keep_table)
        else:
            out = match_pattern(
                engine, _sm(arg, shape), keep_table=keep_table,
                symmetry_breaking=shape == "symmetry_breaking")
        result, table = out if keep_table else (out, None)
        answer = result.cliques if kind == "kcl" else result.embeddings
        return answer, result, table
    return run


def _bill(engine):
    """Simulated time to the bit, every clock bucket and counter, and the
    peak memory of one engine."""
    if isinstance(engine, Gamma):
        books = [(s["clock_buckets"], s["counters"])
                 for s in engine.shard_states()]
    else:
        platform = engine.platform
        books = [(platform.clock.snapshot(),
                  platform.counters.snapshot(include_zero=True))]
    return (float.hex(engine.simulated_seconds), books,
            engine.peak_memory_bytes)


TASKS = (
    [("sm", q, shape) for q in range(1, 7)
     for shape in ("labelled", "unlabelled", "symmetry_breaking")]
    + [("kcl", k, None) for k in (3, 4, 5)]
)

#: One shard places every unit alike, so it runs under one policy only.
ENGINES = (
    [pytest.param(lambda g: Gamma(g), id="gamma")]
    + [pytest.param(
        lambda g, s=shards, p=policy: ShardedGamma(
            g, num_shards=s, policy=p, executor="serial"),
        id=f"shard{shards}-{policy}")
       for shards, policies in ((1, SHARD_POLICIES[:1]), (2, SHARD_POLICIES),
                                (4, SHARD_POLICIES))
       for policy in policies]
    + [pytest.param(lambda g: PangolinGPU(g), id="pangolin-gpu")]
)


def _run(make_engine, graph, task, keep_table):
    engine = make_engine(graph)
    try:
        answer, result, table = _task(task, keep_table)(engine)
        bill = _bill(engine)  # before the (billed) read of the kept rows
        rows = table.materialize() if table is not None else None
        return answer, result, rows, bill
    finally:
        engine.close()


# -- the differential suite ---------------------------------------------------
class TestCountedEqualsKept:
    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_counted_arm_bills_the_kept_arm(self, graph, make_engine,
                                            monkeypatch):
        """Per task: the counted arm and ``keep_table=True`` agree on the
        answer, the result record (simulated seconds and peak memory
        included), every clock bucket and every counter; the kept table is
        the one-batch run's, row for row, and so is its bill."""
        for task in TASKS:
            whole = _run(make_engine, graph, task, keep_table=True)
            monkeypatch.setattr(extension, "_BATCH_SLOTS", SMALL_BUDGET)
            kept = _run(make_engine, graph, task, keep_table=True)
            counted = _run(make_engine, graph, task, keep_table=False)
            monkeypatch.undo()
            assert counted[0] == kept[0] == whole[0], task
            assert counted[1] == kept[1] == whole[1], task
            assert counted[3] == kept[3] == whole[3], task
            np.testing.assert_array_equal(kept[2], whole[2])
            assert counted[0] > 0, task

    def test_a_spilled_counted_level_bills_the_spilled_column(self, graph):
        """A last level too large for the host budget streams to disk:
        counted, it bills the same write without writing anything."""
        config = GammaConfig(spill_to_disk=True, spill_budget_bytes=1 << 10)
        runs = [_run(lambda g: Gamma(g, config), graph, ("kcl", 4, None),
                     keep_table) for keep_table in (True, False)]
        (__, kept, __, kept_bill), (__, counted, __, counted_bill) = runs
        assert counted == kept and counted_bill == kept_bill
        assert counted_bill[1][0][0]["disk_io"] > 0


class TestCountedColumn:
    def _table(self):
        platform = make_platform()
        table = EmbeddingTable(platform, name="t")
        table.seed(np.arange(4))
        table.append_column(np.array([5, 6, 7]), np.array([0, 0, 2]))
        table.append_counted(9)
        return platform, table

    def test_is_a_length_billed_as_rows(self):
        platform, table = self._table()
        assert isinstance(table.columns[-1], CountedColumn)
        assert table.num_embeddings == 9 and table.depth == 3
        assert table.nbytes == (4 + 3 + 9) * 16 == platform.host_used
        for read in (table.materialize, lambda: table.column_values(2),
                     lambda: table.compact(np.ones(9, dtype=bool)),
                     lambda: table.append_column(np.zeros(1), np.zeros(1)),
                     lambda: table.append_counted(1)):
            with pytest.raises(ExecutionError):
                read()
        table.release()
        assert platform.host_used == 0

    def test_snapshot_restore_and_checkpoint_file(self, tmp_path):
        platform, table = self._table()
        records = table.snapshot_columns()
        assert records[-1] == {"counted": 9, "spilled": False}
        manager = CheckpointManager(str(tmp_path))
        manager.save({"columns": records})
        loaded = manager.load()["columns"]
        other_platform = make_platform()
        other = EmbeddingTable(other_platform, name="t")
        other.restore_columns(loaded)
        assert other.num_embeddings == 9
        assert other_platform.host_used == platform.host_used
        blob = serialize_state({"columns": records})
        assert serialize_state(
            {"columns": other.snapshot_columns()}) == blob
        assert deserialize_state(blob)["columns"][-1]["counted"] == 9
        table.release()
        other.release()

    def test_an_oversized_counted_level_spills_as_a_bill(self):
        """Past the spill budget a counted level is billed the disk write
        of its stored twin and restores as on disk, with no file."""
        books = []
        for counted in (False, True):
            platform = make_platform()
            table = EmbeddingTable(platform, name="t")
            store = SpillStore(platform)
            try:
                table.attach_spill(store, SpillPolicy(1, keep_columns=1))
                table.seed(np.arange(4))
                if counted:
                    table.append_counted(9)
                else:
                    table.append_column(np.arange(9), np.arange(9) % 4)
                books.append((platform.clock.snapshot(), platform.host_used,
                              store.bytes_spilled, table.spilled_columns))
                records = table.snapshot_columns()
                table.restore_columns(records)
                assert table.spilled_columns == 2
                table.release()
            finally:
                store.close()
        assert books[0] == books[1]
        assert records[-1] == {"counted": 9, "spilled": True}
        assert store.bytes_on_disk == 0
        unspilled = EmbeddingTable(make_platform(), name="t")
        unspilled.restore_columns(records)  # no store: registered instead
        assert unspilled.platform.host_used == (4 + 9) * 16
        unspilled.release()


# -- journal round trips ------------------------------------------------------
class TestJournalRoundTrip:
    @pytest.mark.parametrize("task", [("kcl", 4, None), ("sm", 3, "labelled")])
    def test_checkpoint_file_resumes_past_the_counted_level(
            self, graph, task, tmp_path):
        """The file a finished counting query leaves holds its counted last
        level; a fresh engine resuming from it replays to the same answer
        and the same bits."""
        run = _task(task, keep_table=False)
        with Gamma(graph) as clean:
            answer = run(clean)[0]
            bill = _bill(clean)
        with Gamma(graph) as first:
            first.run(run, checkpoint_dir=str(tmp_path))
        state = CheckpointManager(str(tmp_path / "shard-0")).load()
        last = state["tables"][0]["columns"][-1]
        assert last == {"counted": answer, "spilled": False}
        with Gamma(graph) as resumed:
            assert resumed.run(run, checkpoint_dir=str(tmp_path),
                               resume=True)[0] == answer
            assert _bill(resumed) == bill

    @pytest.mark.parametrize("executor,gpus", [
        ("serial", 1), ("serial", 2), ("process", 2)])
    @pytest.mark.parametrize("family", ["kcl", "sm"])
    def test_served_query_preempted_at_its_last_level(self, executor, gpus,
                                                      family):
        """Preempted after its counted last level, a served query resumes
        from the journal (in memory, or on disk for worker processes) and
        returns the uninterrupted run's result, clock included."""
        graph = erdos_renyi(36, 120, seed=23, labels=3)
        spec = QuerySpec(family=family, k=4, query=3, dataset="G",
                         tenant="lo", priority=0, gpus=gpus,
                         executor=executor)
        levels = 4

        def serve(preempt):
            scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": graph})
            try:
                low = scheduler.submit(spec)

                def on_stage(state, stage, info):
                    if preempt and state.id == low.id and stage == levels:
                        scheduler.submit(QuerySpec(
                            family="motifs", num_edges=2, dataset="G",
                            tenant="urgent", priority=9))

                scheduler.run_until_idle(on_stage=on_stage)
                return low
            finally:
                scheduler.close()

        base, bumped = serve(False), serve(True)
        assert base.status == bumped.status == "completed"
        assert bumped.preemptions == 1 and bumped.resumes == 1
        assert bumped.result == base.result
        assert float.hex(bumped.billing["simulated_seconds"]) == \
            float.hex(base.billing["simulated_seconds"])

    def test_process_shards_resume_from_their_files(self, graph, tmp_path):
        """Each worker writes its counted level through to its own file;
        fresh workers resuming from them replay to the same answer and
        per-shard books."""
        run = _task(("kcl", 4, None), keep_table=False)
        with ShardedGamma(graph, num_shards=2, executor="process") as clean:
            answer = run(clean)[0]
            bill = _bill(clean)
        with ShardedGamma(graph, num_shards=2, executor="process") as first:
            first.run(run, checkpoint_dir=str(tmp_path))
        for shard in range(2):
            state = CheckpointManager(str(tmp_path / f"shard-{shard}")).load()
            assert "counted" in state["tables"][0]["columns"][-1]
        with ShardedGamma(graph, num_shards=2, executor="process") as resumed:
            assert resumed.run(run, checkpoint_dir=str(tmp_path),
                               resume=True)[0] == answer
            assert _bill(resumed) == bill


# -- the clock-free guard -----------------------------------------------------
class TestBoundedBatches:
    def _spied(self, monkeypatch, graph, task):
        """Run ``task`` counting on Gamma with the budget lowered; return
        every expansion made inside ``extend_vertices`` as ``(slots, rows
        expanded, level)``, each level's stats by level, and the levels
        that took the tail-free phase 2."""
        monkeypatch.setattr(extension, "_BATCH_SLOTS", SMALL_BUDGET)
        expand_lists = extension._expand_lists
        slice_cuts = getattr(extension, "_slice_cuts", None)
        extend = ExtensionEngine.extend_vertices
        seen, levels, inside, tail_free = [], {}, [], set()

        def spy_expand(values, starts, lengths, rows):
            if inside:
                seen.append((int(lengths.sum()), len(np.unique(rows)),
                             inside[-1]))
            return expand_lists(values, starts, lengths, rows)

        def spy_cuts(*args):
            tail_free.add(inside[-1])
            return slice_cuts(*args)

        def spy_extend(self, table, *args, **kwargs):
            inside.append(table.depth)
            try:
                stats = extend(self, table, *args, **kwargs)
            finally:
                inside.pop()
            levels[table.depth - 1] = stats
            return stats

        monkeypatch.setattr(extension, "_expand_lists", spy_expand)
        monkeypatch.setattr(extension, "_slice_cuts", spy_cuts, raising=False)
        monkeypatch.setattr(ExtensionEngine, "extend_vertices", spy_extend)
        with Gamma(graph) as gamma:
            _task(task, keep_table=False)(gamma)
        return seen, levels, tail_free

    def test_no_expansion_exceeds_the_budget_or_one_row(self, graph,
                                                        monkeypatch):
        """Every expansion is a row batch within the budget or a single
        row, except a kept tail-free level's: it expands its slices of
        ``L_m`` straight into the level's output, which is stored whole."""
        seen, outputs = [], 0
        for task in TASKS:
            batches, levels, tail_free = self._spied(monkeypatch, graph, task)
            for slots, rows, level in batches:
                if level in tail_free and slots == levels[level].rows_out:
                    outputs += 1
                else:
                    seen.append((slots, rows))
        assert seen
        for slots, rows in seen:
            assert slots <= SMALL_BUDGET or rows == 1, (slots, rows)
        # The hub's rows are there to be batched alone, and some level
        # expands its output tail-free.
        assert any(slots > SMALL_BUDGET for slots, __ in seen)
        assert outputs

    def test_a_counted_tail_free_level_expands_nothing(self, graph,
                                                       monkeypatch):
        """SM(q3)'s last level is labelled and tail-free, and reads its
        ``L_m`` off the level before: counted, it expands no slot."""
        seen, levels, __ = self._spied(monkeypatch, graph,
                                       ("sm", 3, "labelled"))
        last = max(levels)
        stats = levels[last]
        assert stats.rows_out > 0
        assert [s for s in seen if s[2] == last] == []
        assert stats.expanded == 0
