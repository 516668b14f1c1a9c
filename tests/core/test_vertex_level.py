"""A vertex level bills one occupancy and makes a fixed number of passes.

Two seams of a level, each against its twin in
:data:`tests.twins.VERTEX_LEVEL_TWINS`, installed alone so the rest of the
stack runs as shipped (hub rows included):

* ``HostRegion.charge_ranges`` bills each distinct list once with its read
  count (the level's ``np.bincount`` occupancy), derived once for every
  write-strategy pass; the twin bills every read as its own range and
  re-derives per pass.
* A ``count_only`` level counts its survivors off the verify mask; the
  twin compresses and merges them by row as a kept level does.

The differential suite runs kCL 3-6 (counted and kept), labelled SM q1-q3,
graphlets and FPM-3 on every region type and write strategy, pre-merge on
and off, ``chunk_rows`` set, and 1 and 2 partitions on both executors:
answers, tables, clock buckets, counters and each level's ``expanded`` are
equal bit for bit (``expanded`` stays in a worker process, so the process
executor compares the rest).
"""

import itertools
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from repro.algorithms import (
    count_kcliques, frequent_pattern_mining, graphlet_census, match_pattern,
    motif_count,
)
from repro.baselines import PangolinGPU, Peregrine
from repro.cli import main
from repro.core import Gamma, GammaConfig, extension
from repro.core.extension import (
    ExtensionEngine, _row_argmin, _row_max, _row_min,
)
from repro.errors import HostOutOfMemory
from repro.graph import datasets, from_edges, sm_query
from repro.graph.generators import erdos_renyi, kronecker
from tests.twins import VERTEX_LEVEL_TWINS, vertex_level_twins


@pytest.fixture(scope="module")
def sparse():
    """A skewed core (``kronecker(11, 2)``: 2 048 vertices, 3 665 edges)
    beside 300 disjoint 5-cliques, labels drawn from three: the cliques'
    vertices rank below the hub-row budget (about 480 rows), so their
    probes reach the binary search and their rows bound their own lists;
    every kCL / SM task finds something."""
    core = kronecker(11, 2, seed=5)
    pairs = np.array(list(itertools.combinations(range(5), 2)))
    first = core.num_vertices + 5 * np.arange(300)[:, None]
    n = core.num_vertices + 1500
    return from_edges(
        np.concatenate([core.edge_src, (first + pairs[:, 0]).ravel()]),
        np.concatenate([core.edge_dst, (first + pairs[:, 1]).ravel()]),
        num_vertices=n, labels=np.random.default_rng(6).integers(0, 3, n))


@pytest.fixture(scope="module")
def small():
    """The edge tasks' graph (graphlets, FPM-3): small enough to mine fast."""
    return erdos_renyi(40, 110, seed=3, labels=3)


def _gamma(**config):
    return lambda g: Gamma(g, GammaConfig(**config))


def _chunked(rows):
    def make(g):
        engine = Gamma(g)
        for shard in engine.shards:
            shard._vertex_engine.chunk_rows = rows
        return engine
    return make


ENGINES = {
    "gamma": lambda g: Gamma(g),
    "unified": _gamma(access_mode="unified"),
    "zerocopy": _gamma(access_mode="zerocopy"),
    "two-pass": _gamma(write_strategy="two_pass"),
    "prealloc": _gamma(write_strategy="prealloc"),
    "naive": _gamma(pre_merge=False),
    "naive-two-pass": _gamma(pre_merge=False, write_strategy="two_pass"),
    "chunked": _chunked(37),
    "pangolin-gpu": lambda g: PangolinGPU(g),
    "peregrine": lambda g: Peregrine(g),
    "shard2-serial": lambda g: Gamma(g, num_shards=2, executor="serial"),
    "shard1-process": lambda g: Gamma(g, executor="process"),
    "shard2-process": lambda g: Gamma(g, num_shards=2, executor="process"),
}


def _kcl(k, keep):
    def run(engine):
        out = count_kcliques(engine, k, keep_table=keep)
        return (out[0].cliques, out[1]) if keep else (out.cliques, None)
    return run


def _sm(query, keep):
    def run(engine):
        out = match_pattern(engine, sm_query(query), keep_table=keep)
        return (out[0].embeddings, out[1]) if keep else (out.embeddings, None)
    return run


def _graphlets(engine):
    return sorted(graphlet_census(engine, 4).histogram.items()), None


def _fpm(engine):
    result = frequent_pattern_mining(engine, 3, 4)
    return sorted(result.patterns.items()), None


#: ``name -> (graph fixture, engine -> (answer, kept table or None))``.
TASKS = {
    **{f"kcl{k}-{arm}": ("sparse", _kcl(k, arm == "kept"))
       for k in (3, 4, 5, 6) for arm in ("counted", "kept")},
    **{f"sm-q{q}-{arm}": ("sparse", _sm(q, arm == "kept"))
       for q in (1, 2, 3) for arm in ("counted", "kept")},
    "graphlets4": ("small", _graphlets),
    "fpm3": ("small", _fpm),
}

#: Every task on the plain engine and the partitions; the configuration
#: variants take one task of each kind.
CASES = (
    [(engine, task) for engine in ("gamma", "shard2-serial", "shard1-process",
                                   "shard2-process")
     for task in TASKS]
    + [(engine, task) for engine in ENGINES
       if engine not in ("gamma", "shard2-serial", "shard1-process",
                         "shard2-process")
       for task in ("kcl4-counted", "kcl5-kept", "sm-q3-counted",
                    "sm-q2-kept", "graphlets4", "fpm3")]
)


def _books(engine):
    if isinstance(engine, Gamma):
        return [(s["clock_buckets"], s["counters"])
                for s in engine.shard_states()]
    platform = engine.platform
    return [(platform.clock.snapshot(),
             platform.counters.snapshot(include_zero=True))]


def _run(make_engine, graph, task):
    """``(answer, rows, simulated seconds, books, expanded)`` of one run;
    ``expanded`` is every vertex level's in order (in-process levels only)."""
    expanded = []
    emit = ExtensionEngine._emit_stats

    def spy(self, stats, level, mode):
        expanded.append((level, mode, stats.expanded, stats.rows_out))
        return emit(self, stats, level, mode)

    with mock.patch.object(ExtensionEngine, "_emit_stats", spy):
        engine = make_engine(graph)
        try:
            answer, table = task(engine)
            books = (float.hex(engine.simulated_seconds), _books(engine))
            rows = table.materialize() if table is not None else None
        finally:
            engine.close()
    return answer, rows, books, expanded


class TestVertexLevelTwins:
    @pytest.mark.parametrize("engine,task", CASES)
    def test_seams_equal_their_twins(self, engine, task, request):
        graph_name, run = TASKS[task]
        graph = request.getfixturevalue(graph_name)
        fast = _run(ENGINES[engine], graph, run)
        with vertex_level_twins():
            twin = _run(ENGINES[engine], graph, run)
        assert fast[0] == twin[0] and fast[0]
        if fast[1] is None:
            assert twin[1] is None
        else:
            np.testing.assert_array_equal(fast[1], twin[1])
        assert fast[2] == twin[2]
        assert fast[3] == twin[3]
        if "process" not in engine and not task.startswith("fpm"):
            assert fast[3], "no vertex level reported its expansion"

    def test_every_twin_is_engaged(self, sparse, small):
        """The suite's tasks reach each seam: ``charge_ranges`` with read
        counts above one over two passes, and the twin of a counted level's
        batches — and that twin tests distinct columns the shipped walk
        leaves out as listed or verified."""
        engaged = Counter()
        with ExitStack() as stack:
            for owner, name, twin in VERTEX_LEVEL_TWINS:
                def counted(*args, _twin=twin, _name=name, **kwargs):
                    if _name == "charge_ranges":
                        reads = args[3] if len(args) > 3 else kwargs.get("reads")
                        passes = kwargs.get("passes", 1)
                        if reads is not None and reads.max(initial=0) > 1:
                            engaged["repeated reads"] += 1
                        if passes == 2:
                            engaged["two passes"] += 1
                    else:
                        if len(args) == 7 and args[6]:  # count_only
                            engaged["counted batches"] += 1
                        if any(set(distinct) & {*listed, *verify}
                               for __, listed, verify, distinct in args[5]):
                            engaged["implied distinct columns"] += 1
                    return _twin(*args, **kwargs)
                stack.enter_context(mock.patch.object(owner, name, counted))
            for make in (ENGINES["gamma"], ENGINES["two-pass"]):
                _run(make, sparse, TASKS["kcl4-counted"][1])
                _run(make, sparse, TASKS["sm-q3-counted"][1])
        assert engaged["repeated reads"] and engaged["two passes"]
        assert engaged["counted batches"]
        assert engaged["implied distinct columns"]

    def test_a_counted_level_neither_compresses_nor_merges(self, sparse,
                                                          monkeypatch):
        """kCL-4's last level is counted straight off its verify masks: no
        forced compress of its survivors and no merge by row."""
        forced, merged, depth = [], [], []
        compress = ExtensionEngine._compress
        merge = extension._merge_by_row
        extend = ExtensionEngine.extend_vertices

        def spy_compress(cand, cand_row, pending, force=False):
            if force:
                forced.append(depth[-1])
            return compress(cand, cand_row, pending, force)

        def spy_merge(parts):
            merged.append(depth[-1])
            return merge(parts)

        def spy_extend(self, table, *args, **kwargs):
            depth.append(table.depth)
            try:
                return extend(self, table, *args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(ExtensionEngine, "_compress",
                            staticmethod(spy_compress))
        monkeypatch.setattr(extension, "_merge_by_row", spy_merge)
        monkeypatch.setattr(ExtensionEngine, "extend_vertices", spy_extend)
        with Gamma(sparse) as gamma:
            assert count_kcliques(gamma, 4).cliques > 0
        assert 3 not in forced and 3 not in merged
        assert 2 in forced and 2 in merged


class TestKeptPositions:
    def test_kept_indexes_the_lists_and_holes_are_the_search(self, sparse,
                                                             monkeypatch):
        """A labelled SM level's lists record where its rows sit in them
        (``values[kept]`` is the column), and the next tail-free level
        reads its holes from that record: the positions a ``searchsorted``
        of each row's tail in its group's ``L_m`` finds — kept, through
        its cuts; counted, once per group."""
        seen = Counter()
        groups = []  # the (lm, lm_group) of the level in progress
        extend = ExtensionEngine._extend_vertices_impl
        prefix_lists = ExtensionEngine._prefix_lists
        slice_cuts = extension._slice_cuts

        def spy_extend(self, table, *args, **kwargs):
            stats = extend(self, table, *args, **kwargs)
            column = table.columns[-1]
            lists = column.lists
            if lists is not None and lists.kept is not None:
                np.testing.assert_array_equal(
                    lists.values[lists.kept], column.values)
                np.testing.assert_array_equal(
                    lists.rows[lists.kept], column.parents)
                assert len(lists.values) > len(column.values)
                seen["kept"] += 1
            return stats

        def spy_prefix_lists(self, *args):
            out = prefix_lists(self, *args)
            groups.append(out[:2])
            return out

        def spy_cuts(lm_keys, group_of_row, lm_start, lm_len, mats, greater,
                     less, distinct, hole=None):
            if hole is not None:
                lm, lm_group = groups[-1]
                keys = (lm_group << 32) | lm
                tails = (group_of_row << 32) | mats[:, -1]
                searched = np.searchsorted(keys, tails)
                np.testing.assert_array_equal(keys[searched], tails)
                np.testing.assert_array_equal(hole, searched)
                seen["holes"] += 1
            return slice_cuts(lm_keys, group_of_row, lm_start, lm_len, mats,
                              greater, less, distinct, hole)

        counted_by_group = ExtensionEngine._counted_by_group

        def spy_grouped(self, groups, anchor_deg, carried, *args):
            lists = carried.lists
            keys = (lists.rows << 32) | lists.values
            tails = (carried.parents << 32) | carried.values
            np.testing.assert_array_equal(
                lists.positions(), np.searchsorted(keys, tails))
            seen["grouped"] += 1
            return counted_by_group(self, groups, anchor_deg, carried, *args)

        monkeypatch.setattr(ExtensionEngine, "_counted_by_group",
                            spy_grouped)
        monkeypatch.setattr(ExtensionEngine, "_extend_vertices_impl",
                            spy_extend)
        monkeypatch.setattr(ExtensionEngine, "_prefix_lists",
                            spy_prefix_lists)
        monkeypatch.setattr(extension, "_slice_cuts", spy_cuts)
        for keep in (False, True):
            with Gamma(sparse) as gamma:
                assert _sm(3, keep)(gamma)[0] > 0
        # Per run: levels 1 and 2 keep labelled lists, level 3 (tail-free)
        # reads its holes.
        assert seen["kept"] == 4 and seen["holes"] == seen["grouped"] == 1


class TestRowChains:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_chains_equal_the_axis_reductions(self, width):
        rng = np.random.default_rng(width)
        matrix = rng.integers(0, 4, (500, width))  # many ties
        columns = [matrix[:, j] for j in range(width)]
        np.testing.assert_array_equal(_row_min(columns), matrix.min(axis=1))
        np.testing.assert_array_equal(_row_max(columns), matrix.max(axis=1))
        np.testing.assert_array_equal(_row_argmin(columns),
                                      np.argmin(matrix, axis=1))


class TestGraphTables:
    def test_slots_above_is_the_own_list_search(self, sparse):
        ids = np.arange(sparse.num_vertices, dtype=np.int64)
        want = np.searchsorted(sparse.adjacency_keys, (ids << 32) | ids,
                               side="right")
        np.testing.assert_array_equal(sparse.slots_above(), want)
        np.testing.assert_array_equal(sparse.degree_table(), sparse.degrees)
        assert not sparse.slots_above().flags.writeable
        assert not sparse.degree_table().flags.writeable


class TestLevelAllocationFailure:
    """A NumPy allocation the host cannot serve while a level is built is
    a typed :class:`HostOutOfMemory`, and a CLI run prints a CRASH line."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise np._core._exceptions._ArrayMemoryError((1 << 31,),
                                                      np.dtype(np.int64))

    def test_edge_level(self, small, monkeypatch):
        monkeypatch.setattr(ExtensionEngine, "_edge_candidates", self._refuse)
        with Gamma(small) as gamma, pytest.raises(HostOutOfMemory) as caught:
            motif_count(gamma, 3)
        assert caught.value.requested == 8 << 31
        assert "level:2 host arrays" in str(caught.value)

    def test_vertex_level(self, small, monkeypatch):
        monkeypatch.setattr(ExtensionEngine, "_surviving_candidates",
                            self._refuse)
        with Gamma(small) as gamma, pytest.raises(HostOutOfMemory):
            count_kcliques(gamma, 3)

    def test_cli_prints_a_crash_line(self, monkeypatch, capsys):
        monkeypatch.setattr(ExtensionEngine, "_edge_candidates", self._refuse)
        try:
            code = main(["run", "--task", "motifs", "--edges", "3",
                         "--dataset", "ER"])
        finally:
            datasets.clear_cache()
        assert code == 1
        out = capsys.readouterr().out
        assert ("CRASH: HostOutOfMemory: host OOM for 'level:2 host arrays': "
                "requested 17179869184 bytes") in out
