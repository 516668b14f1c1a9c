"""An edge level holds its output plus one batch.

FPM's edge path works in row batches of at most ``extension._BATCH_SLOTS``
slots (a row longer than that is a batch of its own): edge extension
generates, masks and keeps candidates a batch at a time straight into the
level's output; aggregation encodes a batch of rows at a time and folds
their quick patterns into one level-wide table; dedup's range rule on a
pair column expands a batch of kept children at a time.  Nothing billed
depends on the batching.

* **The differential suite** — with the budget lowered so every level
  takes many batches and the hub's rows exceed it alone, FPM-2/3
  (instances and MNI), motifs-3 on ``Gamma``, two shards (serial and
  process executors), Pangolin-GPU and Pangolin-ST match the one-batch
  run: pattern table, per-row codes and their grouping, the table row for
  row after every primitive, ``float.hex`` of simulated seconds, every
  clock bucket and counter, and peak memory.  The batched encode also
  matches today's whole-level encode, ``tests.twins.encode_whole_level``.
* **The clock-free guard** — no edge-extension expansion, quick-pattern
  grouping or pair-dedup expansion is longer than the budget unless it is
  one row's.
"""

import numpy as np
import pytest

from repro.algorithms import frequent_pattern_mining, motif_count
from repro.baselines import PangolinGPU, PangolinST
from repro.core import Gamma, extension
from repro.core import embedding_table
from repro.core.embedding_table import Column, EmbeddingTable
from repro.core.extension import ExtensionEngine
from repro.graph import from_edges
from repro.graph.canonical import QuickPatternEncoder
from repro.graph.generators import erdos_renyi
from repro.gpusim import make_platform
from repro.shard import ShardedGamma
from tests.twins import aggregation, encode_whole_level

#: Lowered batch budget: every level below takes many batches, and the
#: hub's rows exceed it alone.
SMALL_BUDGET = 24

#: ``(name, engine -> result)``: the FPM runs mine everything of support 2.
TASKS = (
    [(f"fpm{k}-{metric}", lambda e, k=k, m=metric: frequent_pattern_mining(
        e, k, 2, support_metric=m))
     for k in (2, 3) for metric in ("instances", "mni")]
    + [("fpm2-auto", lambda e: frequent_pattern_mining(e, 2, 2, plan="auto"))]
    + [("motifs3", lambda e: motif_count(e, 3))]
)

#: ``(id, factory, in_process, mni)``: whether the test can read the
#: engine's tables, and whether it aggregates by MNI.
ENGINES = [
    ("gamma", lambda g: Gamma(g), True, True),
    ("shard2-serial", lambda g: ShardedGamma(
        g, num_shards=2, policy="stealing", executor="serial"), True, False),
    ("shard2-process", lambda g: ShardedGamma(
        g, num_shards=2, policy="stealing", executor="process"), False, False),
    ("pangolin-gpu", lambda g: PangolinGPU(g), True, True),
    ("pangolin-st", lambda g: PangolinST(g), True, True),
]


@pytest.fixture(scope="module")
def graph():
    """A labelled random graph with vertex 0 made a hub of degree 30."""
    base = erdos_renyi(40, 90, seed=5, labels=3)
    spokes = np.random.default_rng(5).choice(np.arange(1, 40), 30, replace=False)
    return from_edges(
        np.concatenate([base.edge_src, np.zeros(30, dtype=np.int64)]),
        np.concatenate([base.edge_dst, spokes]),
        num_vertices=40, labels=base.labels)


def _rows(table):
    """The table's rows per part, read off its columns unbilled (``None``
    for a table in another process)."""
    parts = getattr(table, "parts", [table])
    if not all(isinstance(part, EmbeddingTable) for part in parts):
        return None
    return [EmbeddingTable.rows_of(
        [(c.values, c.parents) for c in part.columns], slice(None)).tolist()
        for part in parts]


def _groups(table):
    """The codes each part's last aggregation left (``None`` if none)."""
    out = []
    for part in getattr(table, "parts", [table]):
        noted = part.columns[-1].codes if part.columns else None
        out.append(None if noted is None else (
            noted.distinct.tolist(), noted.index.tolist()))
    return out


def _recorded(engine, in_process):
    """Wrap the engine's edge-path primitives so each call appends what it
    returned and, in process, the table's rows (and grouping) after it."""
    log = []
    for name in ("edge_extension", "dedup", "aggregation", "filtering"):
        def call(table, *args, _real=getattr(engine, name), _name=name, **kwargs):
            out = _real(table, *args, **kwargs)
            returned = np.asarray(getattr(out, "rows_out", out)).tolist()
            entry = [_name, returned]
            if in_process:
                entry.append(_rows(table))
                if _name == "aggregation":
                    entry.append(_groups(table))
            log.append(entry)
            return out
        setattr(engine, name, call)
    return log


def _bill(engine):
    if isinstance(engine, Gamma):
        books = [(s["clock_buckets"], s["counters"]) for s in engine.shard_states()]
    else:
        platform = engine.platform
        books = [(platform.clock.snapshot(),
                  platform.counters.snapshot(include_zero=True))]
    return float.hex(engine.simulated_seconds), books, engine.peak_memory_bytes


def _run(factory, in_process, graph, task):
    engine = factory(graph)
    try:
        log = _recorded(engine, in_process)
        result = task(engine)
        answer = getattr(result, "patterns", None) or result.histogram
        return answer, float.hex(result.simulated_seconds), log, _bill(engine)
    finally:
        engine.close()


class TestBatchedEqualsOneBatch:
    @pytest.mark.parametrize("engine_id, factory, in_process, mni", ENGINES,
                             ids=[e[0] for e in ENGINES])
    def test_batched_edge_path_bills_the_one_batch_run(
            self, graph, engine_id, factory, in_process, mni, monkeypatch):
        """Per task: the batched run's answer, every primitive's return
        value, (in process) the tables and groupings after every primitive,
        and the bill equal the one-batch run's."""
        ran = 0
        for name, task in TASKS:
            if name.endswith("mni") and not mni:
                continue  # MNI does not decompose across shards
            whole = _run(factory, in_process, graph, task)
            monkeypatch.setattr(extension, "_BATCH_SLOTS", SMALL_BUDGET)
            batched = _run(factory, in_process, graph, task)
            monkeypatch.undo()
            assert batched[0] == whole[0], name
            assert batched[1] == whole[1], name
            assert batched[2] == whole[2], name
            assert batched[3] == whole[3], name
            assert whole[0], name
            ran += 1
        assert ran >= 3

    @pytest.mark.parametrize("want_mni", [False, True])
    def test_batched_encode_is_the_whole_level_twin(self, graph, want_mni,
                                                    monkeypatch):
        """``encode_level`` over many batches groups every row as the
        whole-level encode does, MNI supports included, and bills what
        reading the whole level and its endpoints at once bills."""
        monkeypatch.setattr(extension, "_BATCH_SLOTS", SMALL_BUDGET)
        for depth in (1, 2, 3):
            batched, whole = (_edge_table(graph, depth) for __ in range(2))
            engine, table = batched
            groups, mni = aggregation.encode_level(
                engine.shards[0].residence, table.parts[0], QuickPatternEncoder(),
                want_mni)
            twin_engine, twin_table = whole
            mats = twin_table.materialize()
            src, dst = twin_engine.shards[0].residence.endpoints_of(mats.ravel())
            assert _books(engine) == _books(twin_engine)
            twin = encode_whole_level(
                QuickPatternEncoder(), src.reshape(mats.shape),
                dst.reshape(mats.shape), graph.labels,
                return_positions=want_mni, grouped=True)
            twin_groups, positions = twin if want_mni else (twin, None)
            assert groups.distinct.tolist() == twin_groups.distinct.tolist()
            assert groups.index.tolist() == twin_groups.index.tolist()
            if want_mni:
                __, twin_mni = aggregation.mni_supports(twin_groups, positions)
                assert mni.tolist() == twin_mni.tolist()
            assert len(groups.index) * depth > SMALL_BUDGET
            engine.close()
            twin_engine.close()

    @pytest.mark.parametrize("kwargs", [
        {}, {"grouped": True}, {"return_positions": True},
        {"return_positions": True, "grouped": True}])
    def test_one_batch_encode_is_the_whole_level_twin(self, graph, kwargs):
        """``encode_edge_embeddings``, the one-batch case, returns the
        whole-level encode's codes, grouping and positions."""
        edges = np.random.default_rng(3).integers(0, graph.num_edges, (200, 3))
        args = (graph.edge_src[edges], graph.edge_dst[edges], graph.labels)
        got = QuickPatternEncoder().encode_edge_embeddings(*args, **kwargs)
        want = encode_whole_level(QuickPatternEncoder(), *args, **kwargs)
        assert _plain(got) == _plain(want)


def _edge_table(graph, depth):
    """An engine and its FPM table grown (and deduped) to ``depth``."""
    engine = Gamma(graph)
    table = engine.new_edge_table()
    engine.seed_edges(table)
    for __ in range(depth - 1):
        engine.edge_extension(table)
        engine.dedup(table)
    return engine, table


def _books(engine):
    platform = engine.platform
    return platform.clock.snapshot(), platform.counters.snapshot()


def _plain(out):
    """Nested lists of an encode's output."""
    if isinstance(out, tuple):
        return [_plain(part) for part in out]
    return np.asarray(out).tolist()


# -- the clock-free guard -------------------------------------------------------
class TestBoundedBatches:
    def test_no_edge_batch_exceeds_the_budget_or_one_row(self, graph,
                                                         monkeypatch):
        """Every expansion of ``_incident_values`` stays within the budget
        or the level's largest single row; every ``_group_quick`` call
        within the budget or one row; every expansion of a deduplicated pair
        level's ranges within the budget or one row's."""
        monkeypatch.setattr(extension, "_BATCH_SLOTS", SMALL_BUDGET)
        largest, expanded, grouped, looked_up = [0], [], [], []
        extend = ExtensionEngine.extend_edges
        incident = ExtensionEngine._incident_values
        group_quick = QuickPatternEncoder._group_quick
        pair_rows = Column._expanded
        expand_ranges = embedding_table.expand_ranges

        def spy_extend(self, table, *args, **kwargs):
            mats = table.materialize()
            ends = np.concatenate([graph.edge_src[mats], graph.edge_dst[mats]], axis=1)
            degree = np.diff(graph.offsets)
            largest[0] = max(int(degree[np.unique(row)].sum()) for row in ends)
            return extend(self, table, *args, **kwargs)

        def spy_incident(self, vertices, endpoints):
            out = incident(self, vertices, endpoints)
            expanded.append((len(out[0]), largest[0]))
            return out

        def spy_group(srcs, dsts, labels):
            grouped.append(srcs.shape)
            return group_quick(srcs, dsts, labels)

        def spy_pair_rows(pair):
            # Four ranges a row: a batch's rows are its range count / 4.
            def spy_expand(starts, ends):
                out = expand_ranges(starts, ends)
                looked_up.append((len(out), len(starts) // 4))
                return out

            monkeypatch.setattr(embedding_table, "expand_ranges", spy_expand)
            try:
                return pair_rows(pair)
            finally:
                monkeypatch.setattr(embedding_table, "expand_ranges",
                                    expand_ranges)

        monkeypatch.setattr(ExtensionEngine, "extend_edges", spy_extend)
        monkeypatch.setattr(ExtensionEngine, "_incident_values", spy_incident)
        monkeypatch.setattr(QuickPatternEncoder, "_group_quick",
                            staticmethod(spy_group))
        monkeypatch.setattr(Column, "_expanded", spy_pair_rows)
        with Gamma(graph) as engine:
            frequent_pattern_mining(engine, 3, 1, plan="baseline")
        for slots, row in expanded:
            assert slots <= max(SMALL_BUDGET, row), (slots, row)
        for rows, k in grouped:
            assert rows * k <= max(SMALL_BUDGET, k), (rows, k)
        for slots, rows in looked_up:
            assert slots <= SMALL_BUDGET or rows == 1, (slots, rows)
        assert len(expanded) > 3 and len(grouped) > 3 and len(looked_up) > 3
        # The hub's rows are there to be batched alone.
        assert any(slots > SMALL_BUDGET for slots, __ in expanded)

    def test_endpoint_reads_bill_their_union(self, graph):
        """Endpoint reads batch by batch bill what one read of every
        batch's ids bills, on every residence."""
        ids = np.random.default_rng(1).integers(0, graph.num_edges, size=300)
        for make in (lambda: Gamma(graph), lambda: PangolinGPU(graph),
                     lambda: PangolinST(graph)):
            bills = []
            for batches in (1, 7):
                with make() as engine:
                    res = (engine.shards[0].residence if isinstance(engine, Gamma)
                           else engine._residence)
                    reads = res.endpoint_reads()
                    parts = [reads.gather(part) for part in np.array_split(ids, batches)]
                    before = engine.platform.clock.snapshot()
                    reads.charge()
                    bills.append((engine.platform.clock.snapshot(), before,
                                  engine.platform.counters.snapshot()))
                    src = np.concatenate([p[0] for p in parts])
                    assert src.tolist() == graph.edge_src[ids].tolist()
            assert bills[0] == bills[1]

    @pytest.mark.parametrize("kind", ["zerocopy", "device"])
    def test_a_gather_tally_bills_one_gather(self, kind):
        """Both region kinds that serve endpoint reads: reads tallied over
        batches bill what one ``gather`` of all their indices bills."""
        array = np.arange(5000, dtype=np.int64)
        ids = np.random.default_rng(2).integers(0, len(array), size=900)
        books = []
        for batches in (0, 1, 9):
            platform = make_platform()
            target = getattr(platform, f"{kind}_region")("r", array)
            if batches == 1:
                assert target.gather(ids).tolist() == array[ids].tolist()
            elif batches:
                tally = target.gather_batches()
                values = [tally.gather(part) for part in np.array_split(ids, batches)]
                tally.charge()
                assert np.concatenate(values).tolist() == array[ids].tolist()
            books.append((platform.clock.snapshot(),
                          platform.counters.snapshot()))
        unread, whole, batched = books
        assert batched == whole != unread
