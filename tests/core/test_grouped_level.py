"""A counted level whose tail is not an anchor is counted and billed once
per group, and a row batch whose sources read the same lists expands once.

Two seams, each against its twin in :mod:`tests.twins`, installed alone so
the rest of the stack runs as shipped:

* ``ExtensionEngine._level_rows`` hands a counted tail-free level its
  groups (the last level's parent rows that have children) with their row
  counts, when the last level's lists answer its ``L_m`` in one chunk and
  nothing bounds its tail; its bill is then a sum over groups weighted by
  their rows.  The twin, :func:`tests.twins.level_rows_per_row`, reads
  every row and takes the per-row rule.
* ``ExtensionEngine._verified_batches`` expands a row batch once, in row
  order, when every source reads the same lists (the min-degree rule over
  the graph's), each candidate verified against its own row's vertex.  The
  twin, :func:`tests.twins.verified_by_source`, expands each source's rows
  on its own and merges a kept level's parts by row.

Every case compares the answer, ``float.hex`` of the simulated seconds,
every partition's clock buckets and counters and the front's level stats,
bit for bit — on Hypothesis-drawn graphs and level programs, pre-merge on
and off, at one and two partitions on both executors (worker processes
fork with the twin installed).
"""

from __future__ import annotations

import itertools
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.algorithms import count_kcliques, match_pattern
from repro.baselines import PangolinGPU, Peregrine
from repro.core import Gamma, GammaConfig
from repro.core.extension import ExtensionEngine
from repro.graph import csr, from_edges, sm_query
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, kronecker
from repro.graph.patterns import Pattern
from tests.twins import level_rows_per_row, verified_by_source

_STATS = ("rows_in", "rows_out", "candidates", "groups", "kernel_ops",
          "list_reads")


def _serial(**config):
    """One partition in this process, whatever executor the environment
    names, so the spies below see its levels."""
    return lambda g: Gamma(g, GammaConfig(**config), executor="serial")


def _chunked(g):
    engine = _serial()(g)
    for shard in engine.shards:
        shard._vertex_engine.chunk_rows = 37
    return engine


ENGINES = {
    "gamma": _serial(),
    "naive": _serial(pre_merge=False),
    "two-pass": _serial(write_strategy="two_pass"),
    "prealloc": _serial(write_strategy="prealloc"),
    "chunked": _chunked,
    "pangolin-gpu": lambda g: PangolinGPU(g),
    "peregrine": lambda g: Peregrine(g),
    "shard2-serial": lambda g: Gamma(g, num_shards=2, executor="serial"),
    "shard1-process": lambda g: Gamma(g, executor="process"),
    "shard2-process": lambda g: Gamma(g, num_shards=2, executor="process"),
    "naive-shard2-process": lambda g: Gamma(
        g, GammaConfig(pre_merge=False), num_shards=2, executor="process"),
}
#: Examples per engine: a process engine forks its workers every run.
EXAMPLES = {name: 6 if "process" in name else 30 for name in ENGINES}


def _books(engine):
    if isinstance(engine, Gamma):
        return [(s["clock_buckets"], s["counters"])
                for s in engine.shard_states()]
    platform = engine.platform
    return [(platform.clock.snapshot(),
             platform.counters.snapshot(include_zero=True))]


@contextmanager
def _installed(name, twin):
    with mock.patch.object(ExtensionEngine, name, twin):
        yield


@contextmanager
def _spied(name):
    """Count the calls of an ``ExtensionEngine`` method in this process."""
    calls = Counter()
    real = getattr(ExtensionEngine, name)

    def spy(self, *args, **kwargs):
        calls[name] += 1
        return real(self, *args, **kwargs)

    with mock.patch.object(ExtensionEngine, name, spy):
        yield calls


# -- level programs ----------------------------------------------------------
@hst.composite
def graphs(draw):
    """A small labelled random graph: Erdős–Rényi or R-MAT (hubs)."""
    seed = draw(hst.integers(min_value=0, max_value=2**31 - 1))
    labels = draw(hst.sampled_from([0, 2, 3]))
    if draw(hst.booleans()):
        n = draw(hst.integers(min_value=4, max_value=40))
        m = draw(hst.integers(min_value=n, max_value=min(4 * n, n * (n - 1) // 2)))
        return erdos_renyi(n, m, seed=seed, labels=labels)
    return kronecker(draw(hst.integers(min_value=4, max_value=6)),
                     draw(hst.integers(min_value=2, max_value=4)),
                     seed=seed, labels=labels)


@hst.composite
def programs(draw, depth=None):
    """A seed label and vertex extensions that grow a table one column at a
    time to a counted last level whose tail is not an anchor.  The last
    level takes its anchors, its orderings on the columns before the tail
    and its injectivity from the level before it most of the time (then
    that level's lists answer its ``L_m``), and may bound its tail."""
    labels = draw(hst.sampled_from([None, 0, 1]))
    depth = depth or draw(hst.integers(min_value=3, max_value=4))

    def label():
        return None if labels is None else draw(hst.sampled_from([None, 0, 1]))

    steps = [dict(anchor_cols=[0], label=label(),
                  greater_than_cols=draw(hst.sampled_from([[], [0]])))]
    for tail in range(1, depth - 1):
        cols = list(range(tail + 1))
        steps.append(dict(
            anchor_cols=draw(hst.lists(hst.sampled_from(cols), min_size=1,
                                       max_size=len(cols), unique=True)),
            label=label(),
            greater_than_cols=draw(hst.lists(hst.sampled_from(cols),
                                             max_size=1)),
            injective=draw(hst.booleans())))
    before, tail = steps[-1], depth - 2
    if draw(hst.integers(min_value=0, max_value=2)):
        anchors = [c for c in before["anchor_cols"] if c < tail] or [0]
        if anchors == sorted(before["anchor_cols"]):
            greater = [c for c in before["greater_than_cols"] if c < tail]
            injective = before["injective"]
        else:
            greater, injective = [], True
    else:
        anchors = draw(hst.lists(hst.sampled_from(range(tail)), min_size=1,
                                 max_size=tail, unique=True))
        greater, injective = [], draw(hst.booleans())
    bound = draw(hst.sampled_from([(), (), (), ("greater",), ("less",)]))
    steps.append(dict(
        anchor_cols=anchors, label=label(),
        greater_than_cols=greater + ([tail] if "greater" in bound else []),
        less_than_cols=[tail] if "less" in bound else [],
        injective=injective, count_only=True))
    return labels, steps


def _mine(program):
    """The program as a driver: ``engine -> (answer, each level's stats)``."""
    seed_label, steps = program

    def run(engine):
        table = engine.new_vertex_table("t")
        engine.seed_vertices(table, label=seed_label)
        stats = [engine.vertex_extension(table, **step) for step in steps]
        return table.num_embeddings, [
            tuple(getattr(level, key) for key in _STATS) for level in stats]
    return run


def _run(make_engine, graph, task):
    engine = make_engine(graph)
    try:
        answer = task(engine)
        return answer, float.hex(engine.simulated_seconds), _books(engine)
    finally:
        engine.close()


def _counted_by_group_calls(make_engine, graph, task):
    with _spied("_counted_by_group") as calls:
        _run(make_engine, graph, task)
    return calls["_counted_by_group"]


# -- the per-group counted level ---------------------------------------------
class TestGroupedCountedLevel:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_equals_the_per_row_rule(self, engine):
        """Random level programs: answers, level stats, simulated seconds,
        clock buckets and counters equal with every level read row by
        row."""
        make = ENGINES[engine]
        grouped = Counter()

        @settings(max_examples=EXAMPLES[engine], deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(graph=graphs(), program=programs())
        def check(graph, program):
            with _spied("_counted_by_group") as calls:
                fast = _run(make, graph, _mine(program))
            grouped.update(calls)
            with _installed("_level_rows", level_rows_per_row):
                twin = _run(make, graph, _mine(program))
            assert fast == twin

        check()
        # Worker processes count their own calls, and chunks are rarely a
        # whole level; elsewhere some example grouped.
        assert ("process" in engine or engine == "chunked"
                or grouped["_counted_by_group"])

    @pytest.mark.parametrize("labelled,injective", list(
        itertools.product((False, True), (False, True))))
    @pytest.mark.parametrize("engine", ["gamma", "naive", "shard2-serial",
                                        "pangolin-gpu", "peregrine"])
    def test_the_group_path_is_taken(self, engine, labelled, injective):
        """SM's diamond closing on its first two columns, labelled or not
        (the tail's label is the new vertex's), with a tail-distinct column
        (injective) or without: grouped, and billed as the per-row rule
        bills it."""
        graph = erdos_renyi(40, 200, seed=4, labels=2)
        seed, first, label = (0, 1, 0) if labelled else (None, None, None)
        program = (seed, [
            dict(anchor_cols=[0], label=first),
            dict(anchor_cols=[0, 1], label=label, injective=injective),
            dict(anchor_cols=[0, 1], label=label, injective=injective,
                 count_only=True)])
        make = ENGINES[engine]
        assert _counted_by_group_calls(make, graph, _mine(program)) == (
            2 if engine == "shard2-serial" else 1)
        fast = _run(make, graph, _mine(program))
        with _installed("_level_rows", level_rows_per_row):
            assert _run(make, graph, _mine(program)) == fast
        assert fast[0][0] > 0

    def test_sm_q3_counts_per_group(self):
        """The benchmark's query shape: SM(q3)'s counted last level."""
        graph = erdos_renyi(60, 300, seed=6, labels=3)

        def task(engine):
            return match_pattern(engine, sm_query(3)).embeddings

        assert _counted_by_group_calls(ENGINES["gamma"], graph, task) == 1

    @pytest.mark.parametrize("case", ["bounded", "chunked", "kept", "spilled"])
    def test_the_per_row_path_is_kept(self, case):
        """A bounded tail, a chunked level, a kept level and a level whose
        last column streamed to disk (its lists are gone) are not grouped,
        and bill alike with the twin installed."""
        graph = erdos_renyi(40, 160, seed=4, labels=3)
        last = dict(anchor_cols=[0, 1], count_only=case != "kept")
        if case == "bounded":
            last["greater_than_cols"] = [2]
        program = (None, [dict(anchor_cols=[0]),
                          dict(anchor_cols=[0, 1]), last])
        make = {"chunked": ENGINES["chunked"],
                "spilled": _serial(spill_to_disk=True,
                                   spill_budget_bytes=1 << 6),
                }.get(case, ENGINES["gamma"])
        assert _counted_by_group_calls(make, graph, _mine(program)) == 0
        fast = _run(make, graph, _mine(program))
        with _installed("_level_rows", level_rows_per_row):
            assert _run(make, graph, _mine(program)) == fast
        assert fast[0][0] > 0
        if case == "spilled":
            assert fast[2][0][0]["disk_io"] > 0

    @pytest.mark.parametrize("engine", ["gamma", "shard2-serial"])
    def test_a_restored_level_takes_the_per_row_path(self, engine):
        """Resumed from a snapshot taken before its last level, a query's
        restored column carries no lists: the last level reads every row,
        and lands on the uninterrupted (grouped) run's bill."""
        graph = erdos_renyi(40, 200, seed=4, labels=2)
        program = (0, [dict(anchor_cols=[0], label=1),
                       dict(anchor_cols=[0, 1], label=0),
                       dict(anchor_cols=[0, 1], label=0, count_only=True)])
        whole, before = _mine(program), _mine((0, program[1][:-1]))
        make = ENGINES[engine]
        with _spied("_counted_by_group") as calls:
            clean = _run(make, graph, lambda e: e.run(whole))
            assert calls["_counted_by_group"]
            calls.clear()
            with make(graph) as first:
                first.run(before)
                handed = first.snapshot()
            resumed = _run(make, graph,
                           lambda e: e.run(whole, resume_state=handed))
            assert calls["_counted_by_group"] == 0
        assert resumed == clean


# -- the single-expansion batch ----------------------------------------------
def _with_cliques(core, cliques=200, size=5, seed=6):
    """``core`` beside disjoint ``size``-cliques on fresh vertices: they rank
    below the hub-row budget, so probes from them miss every hub row."""
    pairs = np.array(list(itertools.combinations(range(size), 2)))
    first = core.num_vertices + size * np.arange(cliques)[:, None]
    n = core.num_vertices + size * cliques
    return from_edges(
        np.concatenate([core.edge_src, (first + pairs[:, 0]).ravel()]),
        np.concatenate([core.edge_dst, (first + pairs[:, 1]).ravel()]),
        num_vertices=n,
        labels=np.random.default_rng(seed).integers(0, 3, n))


def _kcl(k, keep):
    def run(engine):
        out = count_kcliques(engine, k, keep_table=keep)
        return (out[0].cliques, out[1].materialize()) if keep else out.cliques
    return run


def _sm(query, keep, labelled=True):
    pattern = sm_query(query)
    if not labelled:
        pattern = Pattern(pattern.edges, name=f"{pattern.name}-unlabelled")

    def run(engine):
        out = match_pattern(engine, pattern, keep_table=keep)
        return ((out[0].embeddings, out[1].materialize()) if keep
                else out.embeddings)
    return run


TASKS = {
    **{f"kcl{k}-{arm}": _kcl(k, arm == "kept")
       for k in (3, 4, 5) for arm in ("counted", "kept")},
    **{f"sm-q{q}-{arm}": _sm(q, arm == "kept")
       for q in (1, 2, 3) for arm in ("counted", "kept")},
    "sm-q3-unlabelled": _sm(3, False, labelled=False),
}


def _same(fast, twin):
    (answer, *rest), (twin_answer, *twin_rest) = fast, twin
    if isinstance(answer, tuple):
        assert answer[0] == twin_answer[0]
        np.testing.assert_array_equal(answer[1], twin_answer[1])
    else:
        assert answer == twin_answer
    assert rest == twin_rest


@contextmanager
def _pairs_probed():
    """Count the pairs ``CSRGraph.has_edges`` is asked about."""
    probed = Counter()
    real = CSRGraph.has_edges

    def spy(graph, u, v):
        probed["pairs"] += len(u)
        return real(graph, u, v)

    with mock.patch.object(CSRGraph, "has_edges", spy):
        yield probed


class TestSingleExpansion:
    @pytest.mark.parametrize("hubs", ["none", "some", "all"])
    @pytest.mark.parametrize("engine", ["gamma", "naive", "shard2-serial",
                                        "shard2-process", "peregrine"])
    def test_equals_the_split_by_source(self, engine, hubs):
        """Kept tables, answers, bills and every pair ``has_edges`` probes
        equal the per-source split's, on a graph with no hub rows (every
        probe binary-searches), one whose clique vertices miss the hub
        rows, and one where every vertex has a row."""
        make = ENGINES[engine]
        budget = (mock.patch.object(csr, "_HUB_BYTES_PER_KEY_BYTE", 0)
                  if hubs == "none" else nullcontext())
        core = kronecker(9, 3, seed=5, labels=3)
        with budget:
            # A fresh graph per arm: hub rows are built on first probe.
            build = {"none": lambda: _with_cliques(core, cliques=40),
                     "some": lambda: _with_cliques(core),
                     "all": lambda: erdos_renyi(48, 220, seed=2, labels=3),
                     }[hubs]
            for name, task in TASKS.items():
                graph = build()
                with _pairs_probed() as probed:
                    fast = _run(make, graph, task)
                with _installed("_verified_batches", verified_by_source), \
                        _pairs_probed() as twin_probed:
                    twin = _run(make, build(), task)
                _same(fast, twin)
                assert probed == twin_probed, name
            misses = graph._hub_rows()[0] < 0
        assert misses.all() if hubs == "none" else (
            misses.any() == (hubs == "some"))

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=graphs(), task=hst.sampled_from(sorted(TASKS)))
    def test_on_random_graphs(self, graph, task):
        with _spied("_verified_batches") as calls:
            fast = _run(ENGINES["gamma"], graph, TASKS[task])
        with _installed("_verified_batches", verified_by_source):
            twin = _run(ENGINES["gamma"], graph, TASKS[task])
        _same(fast, twin)
        answer = fast[0][0] if isinstance(fast[0], tuple) else fast[0]
        assert calls["_verified_batches"] or answer == 0
