"""FPM's pair level is deduplicated, counted and filtered as ranges.

A two-edge embedding is a wedge, whose code is fixed by three labels: the
centre's and the two ends'.  So instance-support aggregation of a pair
level counts each (centre, other end, far end) triple from the level's
ranges and maps each present triple to its code once
(``aggregation._PairCounts``, ``aggregation._pair_codes``: the level's
``Codes`` note per triple); the support filter narrows the ranges to the
frequent triples; and the rows are
expanded only when something reads them (a third level, ``output_results``,
MNI support, the dedup key exchange of two or more partitions, a row mask).

Every scenario here runs as shipped and on the eager twin
(:func:`tests.twins.pair_level_eagerly`: the pair level stored as arrays,
so dedup sorts it, aggregation encodes its rows and the filter compacts
them) and must agree bit for bit: answers, ``float.hex`` of the simulated
seconds, every clock bucket and counter (zero-copy transactions
included) and peak memory.  The shipped side runs on the executor the
environment selects (``REPRO_SHARD_EXECUTOR=process`` runs every op in a
worker process, where the level keeps its codes); the twin, and every
check that spies on the counting, runs in this process.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from importlib import import_module
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.algorithms import frequent_pattern_mining
from repro.baselines import GraphMiner, PangolinGPU, PangolinST
from repro.core import EmbeddingTable, Gamma, GammaConfig
from repro.core.embedding_table import PAIR, Column
from repro.errors import DeviceOutOfMemory
from repro.graph.builders import from_edges
from repro.graph.canonical import QuickPatterns
from repro.graph.generators import erdos_renyi, kronecker
from repro.resilience import FaultPlan, FaultSpec
from repro.shard.executor import SERIAL_EXECUTOR, default_executor
from tests.core.test_dedup_lookup import _level_one, eager_pairs, fpm_scenarios
from tests.core.test_dedup_lookup import _levels as _column_reads

aggregation = import_module("repro.core.aggregation")
sort = import_module("repro.core.sort")


@contextmanager
def as_shipped():
    yield


def _books(engine):
    """Per partition: clock buckets, counters and peak memory."""
    if isinstance(engine, Gamma):
        return [(s["clock_buckets"], s["counters"], s["peak_memory_bytes"])
                for s in engine.shard_states()]
    platform = engine.platform
    return [(platform.clock.snapshot(),
             platform.counters.snapshot(include_zero=True),
             engine.peak_memory_bytes)]


def _fpm(make_engine, iterations, threshold, metric="instances"):
    """One FPM run: its answer, simulated seconds and books."""
    with make_engine() as engine:
        result = frequent_pattern_mining(engine, iterations, threshold,
                                         support_metric=metric)
        return (result.patterns, result.frequent_per_level,
                float.hex(engine.simulated_seconds), _books(engine))


def _against_the_twin(make_engine, iterations, threshold, metric="instances"):
    """The run as shipped, on ``make_engine(executor)`` with the default
    executor, equals the eager twin's on the serial one; returns it and
    how many pair levels it counted from their ranges (``None`` when the
    shipped run was out of this process)."""
    with _counted() as counted:
        got = _fpm(lambda: make_engine(None), iterations, threshold, metric)
    with eager_pairs():
        want = _fpm(lambda: make_engine(SERIAL_EXECUTOR), iterations,
                    threshold, metric)
    assert got == want
    assert got[0]
    in_process = default_executor() == SERIAL_EXECUTOR
    return got, len(counted) if in_process else None


@contextmanager
def _counted():
    """What aggregation counted from a pair level's ranges, per call."""
    real, counted = aggregation._pair_codes, []

    def spy(*args, **kwargs):
        counted.append(real(*args, **kwargs))
        return counted[-1]

    with mock.patch.object(aggregation, "_pair_codes", spy):
        yield counted


def _gamma(graph, config=None, **kwargs):
    return lambda executor: Gamma(graph, config, executor=executor, **kwargs)


def _labelled(labels, seed=3):
    return erdos_renyi(90, 600, seed=seed, labels=labels)


# -- the scenarios of the dedup suite, through aggregation and the filter ------
def _mine(stack, scenario, threshold):
    """Grow the scenario's level-1 table (dead edges, repeated rows) to its
    depth under ``stack``: extension, dedup, aggregation and the support
    filter per level; after each, the levels, patterns and books."""
    from repro.core.filtering import MinSupport
    from repro.core.pattern_table import PatternTable

    (make_graph, kwargs), keep_fraction, repeats, depth, seed = scenario
    graph = make_graph(**kwargs)
    executor = SERIAL_EXECUTOR if stack is eager_pairs else None
    with stack(), Gamma(graph, executor=executor) as engine:
        table = _level_one(engine, graph, keep_fraction, repeats, seed)
        seen = []
        for __ in range(depth - 1):
            engine.edge_extension(table)
            engine.dedup(table)
            patterns = PatternTable()
            engine.aggregation(table, patterns)
            seen.append((patterns.as_dict(), table.num_embeddings,
                         _books(engine)))
            engine.filtering(table, pattern_table=patterns,
                             constraint=MinSupport(threshold))
            seen.append((patterns.as_dict(), _column_reads(table),
                         _books(engine)))
        return seen


@settings(max_examples=30, deadline=None)
@given(scenario=fpm_scenarios(), threshold=hst.integers(1, 6))
def test_scenarios_match_the_eager_twin(scenario, threshold):
    """Random labelled graphs, dead level-1 edges, repeated level-1 rows and
    depths 2-4: after every primitive, the same patterns, tables and books
    as the eager twin."""
    assert _mine(as_shipped, scenario, threshold) == _mine(
        eager_pairs, scenario, threshold)


# -- FPM end to end, one axis at a time ------------------------------------------
def _supports(graph, level):
    """The level's pattern supports before its filter (min support 1)."""
    seen = {}

    def hook(info):
        if info.get("stage") == "filter":
            seen[info["level"]] = sorted(info["patterns"].values())

    with Gamma(graph, executor=SERIAL_EXECUTOR) as engine:
        frequent_pattern_mining(engine, level, 1, level_hook=hook)
    return seen[level]


def test_dead_level_one_edges():
    """The level-1 filter drops edges, which the level-2 ranges skip."""
    graph = _labelled(6)
    threshold = _supports(graph, 1)[2]
    got, counted = _against_the_twin(_gamma(graph), 2, threshold)
    assert counted != 0 and got[1][0] < len(_supports(graph, 1))


def test_a_level_two_threshold_drops_some_triples():
    """The level-2 filter keeps some triples and drops others."""
    graph = _labelled(4)
    supports = _supports(graph, 2)
    threshold = supports[len(supports) // 2]
    assert supports[0] < threshold
    got, counted = _against_the_twin(_gamma(graph), 2, threshold)
    assert counted != 0 and 0 < got[1][1] < len(supports)


@pytest.mark.parametrize("labels", [0, 9])
def test_one_label_and_many(labels):
    """One label (every wedge one pattern) and nine."""
    graph = _labelled(labels)
    assert graph.num_labels == max(1, labels)
    __, counted = _against_the_twin(_gamma(graph), 2, 2)
    assert counted != 0


def test_the_sort_bills_several_segments():
    """A 128 KiB device: level 2's codes sort in several segments, each
    counted from the ranges between its cuts."""
    graph = kronecker(7, 6, seed=5, labels=4, label_seed=6)
    config = GammaConfig(device_memory_bytes=1 << 17, p_size=32)
    segments = []
    real = sort.segment_runs

    def spy(platform, keys, segment_len):
        segments.append(real(platform, keys, segment_len))
        return segments[-1]

    with mock.patch.object(sort, "segment_runs", spy):
        __, counted = _against_the_twin(_gamma(graph, config), 2, 6)
    # The twin's own segments, in this process: as many as the model bills.
    assert counted != 0 and len(segments[-1]) >= 2


@pytest.mark.parametrize("method", sort.SORT_METHODS)
def test_every_sort_method(method):
    """Table III's four sorts bill the counted level as its rows (xtr2sort
    reads the per-row codes; the others count)."""
    graph = kronecker(7, 6, seed=5, labels=4, label_seed=6)
    config = GammaConfig(device_memory_bytes=1 << 17, p_size=32,
                         sort_method=method)
    __, counted = _against_the_twin(_gamma(graph, config), 2, 6)
    assert counted != 0


@pytest.mark.parametrize("config", [
    GammaConfig(spill_to_disk=True, spill_budget_bytes=1,
                spill_keep_columns=1),
    GammaConfig(compaction=False),
], ids=["spilled", "no-compaction"])
def test_spilled_and_uncompacted(config):
    """A pair level spilled at birth (counted from its level-1 ids faulted
    back) and one filtered mark-only (its dropped rows stay accounted)."""
    graph = _labelled(4)
    __, counted = _against_the_twin(_gamma(graph, config), 3, 3)
    assert counted != 0


def test_mni_reads_rows():
    """MNI support needs each row's vertices: the pair level is expanded."""
    graph = _labelled(4)
    __, counted = _against_the_twin(_gamma(graph), 2, 3, metric="mni")
    assert not counted


def test_fpm3_reads_the_filtered_ranges():
    """The third level's extension reads the filtered pair level's rows."""
    graph = _labelled(4)
    got, counted = _against_the_twin(_gamma(graph), 3, 4)
    assert counted != 0 and got[1][2] > 0


@pytest.mark.parametrize("make", [PangolinST, GraphMiner, PangolinGPU],
                         ids=["pangolin-st", "graphminer", "pangolin-gpu"])
def test_baseline_engines(make):
    """Every engine builds its codes through the one builder, which counts
    the pair level from its ranges: CPU engines bill it as CPU work,
    Pangolin-GPU as its in-core scratch and sort, and no engine encodes a
    pair level's rows."""
    graph = _labelled(4)
    encoded = []
    real = aggregation.encode_level

    def encode_level(residence, table, *args, **kwargs):
        encoded.append(table.columns[-1].source)
        return real(residence, table, *args, **kwargs)

    with _counted() as counted, mock.patch.object(
            aggregation, "encode_level", encode_level):
        _against_the_twin(lambda executor: make(graph), 3, 4)
    assert len(counted) == 1 and encoded and PAIR not in encoded


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_two_partitions(executor):
    """Two partitions: dedup's key exchange reads each partition's pair
    level and its reconcile filter keeps rows by a per-row mask, so each
    partition then aggregates arrays; answers and books are the twin's,
    on either executor."""
    graph = _labelled(4)
    got, __ = _against_the_twin(
        lambda twin: Gamma(graph, num_shards=2, executor=twin or executor),
        3, 4)
    assert got[1][1] > 0


def test_the_note_holds_the_twins_codes():
    """Aggregation leaves a counted pair level's codes on its column, one
    per wedge triple: read through the level's ranges they are the per-row
    codes the twin's aggregation leaves on its arrays level."""
    from repro.core.pattern_table import PatternTable

    graph = _labelled(4)
    rows = []
    for stack in (as_shipped, eager_pairs):
        with stack(), Gamma(graph, executor=SERIAL_EXECUTOR) as engine:
            table = engine.new_edge_table()
            engine.seed_edges(table)
            engine.edge_extension(table)
            engine.dedup(table)
            assert engine.aggregation(table, PatternTable()) is None
            level = table.parts[0].columns[-1]
            codes = level.codes
            assert len(codes) == table.num_embeddings
            assert (codes.triples is not None) == (stack is as_shipped)
            if codes.triples is not None:
                codes = aggregation._PairKeys(
                    aggregation._PairCounts(level), codes)
            rows.append(codes.rows().tolist())
    assert rows[0] == rows[1] and rows[0]


# -- the counts against the rows ----------------------------------------------
@hst.composite
def pair_levels(draw):
    """A small graph whose labels skip values, and a pair level over it:
    deduplicated (level-1 ids strictly ascending, some edges dead) or
    plain (level-1 ids repeated and shuffled)."""
    n = draw(hst.integers(min_value=2, max_value=16))
    vertex = hst.integers(min_value=0, max_value=n - 1)
    edges = draw(hst.lists(hst.tuples(vertex, vertex), min_size=1,
                           max_size=50))
    alphabet = sorted(draw(hst.sets(hst.integers(min_value=0, max_value=9),
                                    min_size=1, max_size=4)))
    labels = np.array(draw(hst.lists(hst.sampled_from(alphabet),
                                     min_size=n, max_size=n)))
    src, dst = np.array(edges).T
    graph = from_edges(src, dst, num_vertices=n, labels=labels)
    edge = hst.integers(min_value=0, max_value=max(0, graph.num_edges - 1))
    first = np.array(draw(hst.lists(edge, max_size=30)), dtype=np.int64)
    if not graph.num_edges:
        first = first[:0]
    deduped = draw(hst.booleans())
    if deduped:
        first = np.unique(first)
    return Column.of_pair(first, graph, deduped=deduped)


def _expanded_triples(level):
    """Each row's wedge triple from the level's expanded rows: the centre is
    the vertex the row's two edges share."""
    graph = level.graph
    parent_edge = level.first[level.parents]
    ends = [(graph.edge_src[e], graph.edge_dst[e])
            for e in (parent_edge, level.values)]
    (a, b), (c, d) = ends
    centre = np.where((a == c) | (a == d), a, b)
    other = np.where(centre == a, b, a)
    far = np.where(centre == c, d, c)
    span = graph.num_labels
    labels = graph.labels
    return (labels[centre] * span + labels[other]) * span + labels[far]


@settings(max_examples=60, deadline=None)
@given(level=pair_levels(), data=hst.data())
def test_counts_are_the_rows_counted(level, data):
    """``_PairCounts.counts(bounds)`` equals a count of each row's triple
    between bounds cutting ranges anywhere: inside, at a range start, and
    twice at one row (an empty segment)."""
    counted = aggregation._PairCounts(level)
    triples = counted.row_triples()
    assert counted.rows == len(level) == len(triples)
    assert triples.tolist() == _expanded_triples(level).tolist()
    starts = (counted._row_end - (counted._ends - counted._starts)).tolist()
    cut = hst.integers(min_value=0, max_value=counted.rows)
    if starts:
        cut = cut | hst.sampled_from(starts)
    bounds = sorted([0, counted.rows] + data.draw(hst.lists(cut, max_size=8)))
    segment, triple, count = counted.counts(bounds)
    assert (count > 0).all()
    got = Counter(dict(zip(zip(segment.tolist(), triple.tolist()),
                           count.tolist())))
    assert len(got) == len(count)
    want = Counter()
    for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        want.update((index, t) for t in triples[lo:hi].tolist())
    assert got == want
    __, triple, count = counted.counts([0, counted.rows])
    assert triple.tolist() == sorted(set(triples.tolist()))
    assert dict(zip(triple.tolist(), count.tolist())) == Counter(
        triples.tolist())


@settings(max_examples=40, deadline=None)
@given(level=pair_levels())
def test_a_plain_levels_length_is_its_ranges(level):
    """A plain pair level's length comes from degrees, ``deg(u) + deg(v) -
    2`` a level-1 row, without its ranges; it is what the ranges hold."""
    plain = Column.of_pair(level.first, level.graph)
    assert plain._ranges is None
    __, starts, ends = plain.ranges()
    assert len(plain) == int((ends - starts).sum())


# -- resumes ------------------------------------------------------------------
#: Where a fault suspends a query: level 2's aggregation (the snapshot holds
#: the deduplicated pair level), its filter (the aggregation's per-triple
#: codes are journaled) and the third level's extension (the filtered pair
#: level is in the snapshot).
_SUSPENSIONS = {
    "aggregation": (2, FaultSpec(kind="device_oom", at="*/phase:aggregation",
                                 after=1)),
    "filtering": (2, FaultSpec(kind="device_oom", at="*/phase:filtering",
                               after=1)),
    "level-2": (3, FaultSpec(kind="device_oom", at="*/level:2")),
}


@pytest.mark.parametrize("route", ["memory", "disk"])
@pytest.mark.parametrize("where", sorted(_SUSPENSIONS))
def test_a_resumed_query_lands_on_the_uninterrupted_run(where, route,
                                                        tmp_path):
    graph = _labelled(4)
    iterations, spec = _SUSPENSIONS[where]
    threshold = 8  # keeps 47 of level 2's 50 patterns

    def fpm(engine):
        return frequent_pattern_mining(engine, iterations, threshold)

    journal = str(tmp_path) if route == "disk" else None
    with Gamma(graph) as first:
        first.install_fault_plan(FaultPlan(name="stop", specs=(spec,)))
        with pytest.raises(DeviceOutOfMemory):
            first.run(fpm, checkpoint_dir=journal)
        handed = first.snapshot()
    level = handed[0]["tables"][0]["columns"][-1]
    assert "first" in level and level.get("deduped")
    assert ("kept" in level) == (where == "level-2")
    with Gamma(graph) as second, _counted() as counted:
        result = second.run(fpm, checkpoint_dir=journal, resume=True,
                            resume_state=None if journal else handed)
        resumed = (result.patterns, result.frequent_per_level,
                   float.hex(second.simulated_seconds), _books(second))
    if default_executor() == SERIAL_EXECUTOR:
        assert len(counted) == (where == "aggregation")
    with eager_pairs():
        whole = _fpm(lambda: Gamma(graph, executor=SERIAL_EXECUTOR),
                     iterations, threshold)
    # The resumed engine's books: the clock and counters it restored and
    # added to (its peak is its own run's).
    assert resumed[:3] == whole[:3]
    assert resumed[3][0][:2] == whole[3][0][:2]


# -- work counted, not timed --------------------------------------------------------
def test_fpm2_never_expands_its_pair_level():
    """FPM-2: the level-2 pair column is never expanded — no
    ``Column._expanded``, no ``EmbeddingTable.rows_of`` or
    ``QuickPatterns.add`` call over its rows, and no level-2 array of its
    rows allocated (the largest array the level's ops allocate is far
    below its row count)."""
    graph = kronecker(8, 8, seed=5, labels=4, label_seed=6)
    sizes = {}
    real_add = QuickPatterns.add

    def add(self, srcs, dsts):
        assert self.k == 1 or len(srcs) <= 4 ** 3, "a row batch of level 2"
        return real_add(self, srcs, dsts)

    real_empty, real_zeros = np.empty, np.zeros

    def sized(real, name):
        def make(shape, *args, **kwargs):
            size = int(np.prod(shape))
            sizes[name] = max(sizes.get(name, 0), size)
            return real(shape, *args, **kwargs)
        return make

    real_rows_of = EmbeddingTable.rows_of

    def rows_of(levels, rows):
        assert len(levels) == 1, "rows of level 2 formed"
        return real_rows_of(levels, rows)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            Column, "_expanded", side_effect=AssertionError("expanded")))
        stack.enter_context(mock.patch.object(
            EmbeddingTable, "rows_of", staticmethod(rows_of)))
        stack.enter_context(mock.patch.object(QuickPatterns, "add", add))
        for module in (aggregation, import_module("repro.core.embedding_table"),
                       sort):
            stack.enter_context(mock.patch.object(
                module.np, "empty", sized(real_empty, "empty")))
            stack.enter_context(mock.patch.object(
                module.np, "zeros", sized(real_zeros, "zeros")))
        with Gamma(graph, executor=SERIAL_EXECUTOR) as engine:
            result = frequent_pattern_mining(engine, 2, 6)
            level_two = engine.shards[0]._tables[0].columns[-1]
            rows = len(level_two)
    assert level_two.source == PAIR and level_two.deduped
    assert result.frequent_per_level[-1] > 0 and rows > 10 * graph.num_edges
    assert max(sizes.values()) < rows / 4


def test_fpm2_builds_each_pair_levels_ranges_once():
    """FPM-2: the plain pair level takes its length from degrees and builds
    no ranges; the deduplicated one builds them once, with its length, and
    aggregation and the support filter read those.  The arrays handed out
    are read-only and the same on every call."""
    graph = kronecker(8, 8, seed=5, labels=4, label_seed=6)
    built = []
    real = Column._built_ranges

    def spy(column):
        built.append(column.deduped)
        return real(column)

    with mock.patch.object(Column, "_built_ranges", spy), \
            Gamma(graph, executor=SERIAL_EXECUTOR) as engine:
        result = frequent_pattern_mining(engine, 2, 6)
        level_two = engine.shards[0]._tables[0].columns[-1]
        assert level_two.deduped and result.frequent_per_level[-1]
        ranges = level_two.ranges()
    assert built == [True]
    assert all(a is b for a, b in zip(ranges, level_two.ranges()))
    assert all(not part.flags.writeable for part in ranges)


def test_fpm2_reads_each_pair_levels_endpoints_once():
    """FPM-2: the deduplicated pair level reads its level-1 rows' endpoints
    once, for its ranges, and aggregation's triples take the same arrays;
    the support filter's narrowed level shares them and reads none."""
    read = Counter()
    real = Column._edge_ends

    def spy(column):
        read[id(column)] += 1
        return real(column)

    with mock.patch.object(Column, "_edge_ends", spy), \
            Gamma(_labelled(4), executor=SERIAL_EXECUTOR) as engine:
        result = frequent_pattern_mining(engine, 2, 20)
        level_two = engine.shards[0]._tables[0].columns[-1]
        assert level_two.kept is not None and result.frequent_per_level[-1]
        ends = level_two.edge_ends()
    assert list(read.values()) == [1]
    assert all(a is b for a, b in zip(ends, level_two.edge_ends()))
    assert all(not part.flags.writeable for part in ends)


def test_the_dedup_key_exchange_bills_nothing():
    """At two partitions dedup's key exchange reads each partition's rows
    host-side between ops: each spilled level is read once through the
    spill store's uncharged peek, and no clock bucket moves (a charge
    there would land outside every journaled op)."""
    from repro.shard.worker import ShardWorker

    config = GammaConfig(spill_to_disk=True, spill_budget_bytes=1,
                         spill_keep_columns=1)
    real = ShardWorker.do_set_keys
    moved = []

    def set_keys(worker, table):
        before = worker.platform.clock.snapshot()
        keys = real(worker, table)
        moved.append((before, worker.platform.clock.snapshot(), len(keys)))
        return keys

    graph = erdos_renyi(120, 700, seed=3)
    with mock.patch.object(ShardWorker, "do_set_keys", set_keys), \
            Gamma(graph, config, num_shards=2,
                  executor=SERIAL_EXECUTOR) as engine:
        frequent_pattern_mining(engine, 2, 1)
        assert engine.shards[0]._spill_store.bytes_spilled > 0
    assert len(moved) == 2 and all(keys for __, __, keys in moved)
    for before, after, __ in moved:
        assert after == before
