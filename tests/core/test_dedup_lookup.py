"""The pair level is its parents' incident lists.

An unrestricted edge extension of a one-edge table appends a pair
column (a ``PAIR`` source): row ``p`` holds edge ``f = (u, v)``, and its children are
``u``'s incident list, then ``v``'s, each with ``f``'s slot cut out — four
CSR ranges a row, expanded only when something reads the arrays.
``dedup_embeddings`` on it reads no child: with every list ascending by
edge id and the level-1 rows strictly ascending, it keeps, per row, the
level-1-dead edges before ``f``'s slot and every edge after it (the range
rule, ``Column.deduplicated``).  Repeated level-1 rows, or lists
that do not ascend by id, take the sort.

Every engine kind must agree bit for bit with the eager twin
(:func:`tests.twins.pair_level_eagerly`: the level stored as edge
extension used to store it, then materialized and sorted by dedup) after
every primitive: tables, clock buckets, counters and peak memory.  Edge
extension's within-row rule at depth 2 and beyond (an edge joining two row
vertices counts where it is met from the lower one) is checked against
``_first_occurrence_mask`` over the candidates.
"""

from contextlib import ExitStack, contextmanager
from importlib import import_module
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.algorithms import frequent_pattern_mining, motif_count
from repro.baselines import GraphMiner, PangolinGPU, PangolinST
from repro.core import EDGE, EmbeddingTable, Gamma, GammaConfig, extension
from repro.core.embedding_table import PAIR, Column
from repro.core.extension import ExtensionEngine
from repro.core.spill import SpillStore
from repro.errors import InvalidGraphError
from repro.graph import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, kronecker
from repro.shard import worker
from tests.twins import pair_level_eagerly

aggregation = import_module("repro.core.aggregation")


@contextmanager
def eager_pairs():
    """The eager twin over ``EmbeddingTable.append_pair``."""
    with mock.patch.object(EmbeddingTable, "append_pair", pair_level_eagerly):
        yield


@contextmanager
def fast():
    yield


@contextmanager
def _calls(owner, name):
    """What ``owner.name`` returned, per call, inside the block."""
    real, returned = getattr(owner, name), []

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    with mock.patch.object(owner, name, spy):
        yield returned


@contextmanager
def _forbidden(*targets):
    """Fail the enclosed code if it calls any ``(owner, name)``."""
    with ExitStack() as stack:
        for owner, name in targets:
            stack.enter_context(mock.patch.object(
                owner, name, side_effect=AssertionError(name)))
        yield


# -- the level-1 table a scenario grows from ----------------------------------
@hst.composite
def fpm_scenarios(draw):
    """A random labelled ER graph or a small R-MAT graph (hubs, isolated
    vertices), a level-1 keep mask standing in for the support filter, and
    whether the level-1 rows repeat edges."""
    seed = draw(hst.integers(min_value=0, max_value=2**31 - 1))
    if draw(hst.booleans()):
        graph = (erdos_renyi, dict(
            num_vertices=draw(hst.integers(min_value=2, max_value=30)),
            num_edges=draw(hst.integers(min_value=1, max_value=90)),
            seed=seed, labels=draw(hst.integers(min_value=0, max_value=3))))
    else:
        graph = (kronecker, dict(
            scale=draw(hst.integers(min_value=2, max_value=6)),
            edge_factor=draw(hst.integers(min_value=1, max_value=3)),
            seed=seed, labels=3))
    keep_fraction = draw(hst.sampled_from([1.0, 0.7, 0.3]))
    repeats = draw(hst.booleans())
    depth = draw(hst.integers(min_value=2, max_value=4))
    return graph, keep_fraction, repeats, depth, seed


def _level_one(engine, graph, keep_fraction, repeats, seed):
    """The level-1 table: every edge (some twice, in shuffled order, when
    ``repeats``), then the support filter's stand-in mask."""
    rng = np.random.default_rng(seed)
    table = engine.new_edge_table()
    if repeats and graph.num_edges:
        table.seed(rng.integers(0, graph.num_edges, size=2 * graph.num_edges))
    else:
        engine.seed_edges(table)
    engine.filtering(table, keep_mask=rng.random(table.num_embeddings)
                     < keep_fraction)
    return table


def _children_by_first_occurrence(graph, mats):
    """Each row's children as a sort finds them: the row vertices'
    incident edges, ascending by vertex, minus the row's own edges, then
    the first occurrence of each (row, edge) pair."""
    values, parents = [], []
    for row, edges in enumerate(mats.tolist()):
        verts = np.unique(np.concatenate(
            [graph.edge_src[edges], graph.edge_dst[edges]]))
        cand = np.concatenate(
            [graph.edge_ids[graph.offsets[v]:graph.offsets[v + 1]]
             for v in verts])
        cand = cand[~np.isin(cand, edges)]
        keep = extension._first_occurrence_mask(
            np.full(len(cand), row, dtype=np.int64), cand, graph.num_edges + 1)
        values += cand[keep].tolist()
        parents += [row] * int(keep.sum())
    return values, parents


def _levels(table):
    """Every level's ids and parents, read unbilled."""
    return [(table.column_values(level).tolist(),
             table.column_parents(level).tolist())
            for level in range(table.depth)]


def _books(engine):
    """Per partition: clock buckets, counters and peak memory."""
    if isinstance(engine, Gamma):
        return [(s["clock_buckets"], s["counters"], s["peak_memory_bytes"])
                for s in engine.shard_states()]
    platform = engine.platform
    return [(platform.clock.snapshot(),
             platform.counters.snapshot(include_zero=True),
             engine.peak_memory_bytes)]


def _grow(stack, scenario, check_children=False):
    """Extend and dedup the level-1 table to ``depth`` edges under
    ``stack``; every table, clock, counter set and peak along the way."""
    (make_graph, kwargs), keep_fraction, repeats, depth, seed = scenario
    graph = make_graph(**kwargs)
    with stack(), Gamma(graph) as engine:
        table = _level_one(engine, graph, keep_fraction, repeats, seed)
        seen = [(_levels(table), _books(engine))]
        for __ in range(depth - 1):
            parents_mats = table.materialize() if check_children else None
            engine.edge_extension(table)
            if check_children:
                assert ([table.column_values(-1).tolist(),
                         table.column_parents(-1).tolist()]
                        == list(_children_by_first_occurrence(
                            graph, parents_mats)))
            seen.append((_levels(table), _books(engine)))
            removed = engine.dedup(table)
            seen.append((removed, _levels(table), _books(engine)))
        return seen


@settings(max_examples=40, deadline=None)
@given(scenario=fpm_scenarios())
def test_lookup_matches_sort(scenario):
    """FPM-2/3/4 levels, dead level-1 edges and repeated level-1 rows
    included: the range rule (or the sort it falls back to) leaves what
    the eager twin's sort leaves after every primitive — same tables,
    clocks, counters and peaks."""
    assert _grow(fast, scenario) == _grow(eager_pairs, scenario)


@settings(max_examples=40, deadline=None)
@given(scenario=fpm_scenarios())
def test_endpoint_rule_matches_first_occurrence(scenario):
    """Depths 1-3: the pair column's four ranges, and the other-endpoint
    rule beyond, hold exactly the candidates ``_first_occurrence_mask``
    keeps, in the same order."""
    _grow(fast, scenario, check_children=True)


# -- every engine kind, primitive by primitive --------------------------------
_PRIMITIVES = ("seed_edges", "edge_extension", "dedup", "aggregation",
               "filtering")


def _trail(make_engine, task):
    """Run ``task`` on a fresh engine; after each primitive, the table's
    levels and the engine's books."""
    trail = []
    with make_engine() as engine:
        for name in _PRIMITIVES:
            real = getattr(engine, name)

            def recorded(table, *args, _real=real, _name=name, **kwargs):
                out = _real(table, *args, **kwargs)
                trail.append((_name, _levels(table), _books(engine)))
                return out

            setattr(engine, name, recorded)
        task(engine)
    return trail


_TASKS = {
    "fpm2": lambda engine: frequent_pattern_mining(engine, 2, 4, plan="baseline"),
    "fpm3": lambda engine: frequent_pattern_mining(engine, 3, 6, plan="baseline"),
    "motifs3": lambda engine: motif_count(engine, 3, plan="baseline"),
}

_ENGINES = {
    "gamma1": lambda g: Gamma(g),
    "gamma2": lambda g: Gamma(g, num_shards=2),
    "gamma4": lambda g: Gamma(g, num_shards=4),
    "pangolin-gpu": PangolinGPU,
    "pangolin-st": PangolinST,
    "graphminer": GraphMiner,
}


def _engine_graph():
    return kronecker(6, 4, seed=9, labels=3, label_seed=2)


@pytest.mark.parametrize("task", sorted(_TASKS))
@pytest.mark.parametrize("kind", sorted(_ENGINES))
def test_every_engine_matches_the_eager_twin(kind, task):
    """Each primitive of FPM-2/3 and motifs-3 leaves the same tables and
    books as the eager twin, on every engine kind; the pair levels took
    the range rule."""
    graph = _engine_graph()
    make = lambda: _ENGINES[kind](graph)  # noqa: E731
    with _calls(Column, "deduplicated") as ranged:
        got = _trail(make, _TASKS[task])
    assert ranged
    with eager_pairs(), _calls(Column, "deduplicated") as ranged:
        want = _trail(make, _TASKS[task])
    assert not ranged
    assert got == want


@pytest.mark.parametrize("task", sorted(_TASKS))
def test_process_partitions_match_the_eager_twin(task):
    """Two partitions on the process executor (whose workers the twin's
    patch does not reach) against the eager twin on two serial ones."""
    graph = _engine_graph()
    got = _trail(lambda: Gamma(graph, num_shards=2, executor="process"),
                 _TASKS[task])
    with eager_pairs():
        want = _trail(lambda: Gamma(graph, num_shards=2), _TASKS[task])
    assert got == want


def test_a_spilled_pair_column_takes_the_range_rule():
    """A pair column over the spill budget streams to disk as its level-1
    ids, billed as its arrays; its dedup faults them back (billed as the
    arrays) and keeps rows by the range rule, and every book matches the
    eager twin's, which stores the arrays and sorts them.  The extension
    faults the spilled level 1 back once, for its own walk: the pair column
    is built from the ids that walk read."""
    config = GammaConfig(spill_to_disk=True, spill_budget_bytes=1,
                         spill_keep_columns=1)
    graph = _engine_graph()
    make = lambda: Gamma(graph, config=config)  # noqa: E731
    with make() as engine:
        table = engine.new_edge_table()
        engine.seed_edges(table)
        with _calls(SpillStore, "fetch") as fetched:
            engine.edge_extension(table)
        assert len(fetched) == 1
        assert table.parts[0].columns[-1].source == PAIR
        assert table.parts[0].columns[-1].on_disk
    with _calls(Column, "deduplicated") as ranged:
        got = _trail(make, _TASKS["fpm3"])
    assert len(ranged) == 1  # level 2's; level 3 is arrays, and sorts
    with eager_pairs():
        want = _trail(make, _TASKS["fpm3"])
    assert got == want


# -- the range rule's precondition ----------------------------------------------
def _ids_shuffled(graph, seed):
    """``graph`` with its edge ids permuted: every list still ascends by
    neighbour, no longer by edge id."""
    perm = np.random.default_rng(seed).permutation(graph.num_edges)
    src = np.empty_like(graph.edge_src)
    dst = np.empty_like(graph.edge_dst)
    src[perm], dst[perm] = graph.edge_src, graph.edge_dst
    return CSRGraph(graph.offsets, graph.neighbors, perm[graph.edge_ids],
                    src, dst, graph.labels, name=graph.name + "~ids")


def test_lists_out_of_id_order_take_the_sort():
    """A hand-built CSR whose lists do not ascend by edge id: the slot map
    says so, dedup sorts, and FPM-3 matches the eager twin and the
    original graph's patterns."""
    graph = _engine_graph()
    shuffled = _ids_shuffled(graph, 4)
    assert graph.edge_slots()[2] and not shuffled.edge_slots()[2]
    make = lambda: Gamma(shuffled)  # noqa: E731
    with _calls(Column, "deduplicated") as ranged:
        got = _trail(make, _TASKS["fpm3"])
    assert not ranged
    with eager_pairs():
        assert got == _trail(make, _TASKS["fpm3"])
    with Gamma(graph) as one, Gamma(shuffled) as other:
        assert (_TASKS["fpm3"](one).patterns
                == _TASKS["fpm3"](other).patterns)


def test_a_self_loop_is_refused():
    """A hand-built CSR holding a self loop: its edge would have no lower
    and upper slot for the pair column's slot map, and no engine ever
    gets the graph — the constructor refuses it."""
    with pytest.raises(InvalidGraphError, match="edge 0 is a self loop"):
        CSRGraph([0, 2, 3], [0, 1, 0], [0, 1, 1], [0, 0], [0, 1])


def test_repeated_level_one_rows_take_the_sort():
    """An explicit seed holding edges twice (binary-join SM's): the
    level-1 values do not strictly ascend, so dedup sorts."""
    graph = _engine_graph()
    with Gamma(graph) as engine, \
            _calls(Column, "deduplicated") as ranged:
        table = engine.new_edge_table()
        table.seed(np.array([3, 1, 3, 5]))
        engine.edge_extension(table)
        assert table.parts[0].columns[-1].source == PAIR
        engine.dedup(table)
        pairs = {frozenset(row) for row in table.materialize().tolist()}
    assert not ranged
    assert len(pairs) == table.num_embeddings


def test_caller_built_pairs_take_the_sort():
    """``{5, 7}`` then ``{9, 5}``: distinct sets, but read as a pair level
    the range rule would drop ``{9, 5}`` (5 < 9 and row 0 holds 5).  A
    caller-built column is a plain ``Column``, and dedup sorts it."""
    with Gamma(_engine_graph()) as engine, \
            _calls(Column, "deduplicated") as ranged:
        table = EmbeddingTable(engine.platform, EDGE)
        table.seed(np.array([5, 9]))
        table.append_column(np.array([7, 5]), np.array([0, 1]))
        removed = aggregation.dedup_embeddings(engine.platform, table)
    assert ranged == []
    assert removed == 0 and table.materialize().tolist() == [[5, 7], [9, 5]]


# -- work counted, not timed ----------------------------------------------------
def _pins_graph():
    return kronecker(7, 6, seed=5, labels=4, label_seed=6)


def test_pair_dedup_sorts_nothing():
    """FPM-2's edge extension expands nothing, and its dedup materialises
    no rows and sorts no keys, yet removes the duplicates."""
    real = aggregation.dedup_embeddings
    removed = []

    def guarded(platform, table, cpu=False):
        with _forbidden((aggregation, "first_occurrence"),
                        (aggregation, "sorted_columns"),
                        (EmbeddingTable, "materialize"),
                        (Column, "_expanded")):
            removed.append(real(platform, table, cpu))
        return removed[-1]

    with mock.patch.object(worker, "dedup_embeddings", guarded), \
            _forbidden((ExtensionEngine, "_incident_values"),
                       (ExtensionEngine, "_edge_candidates"),
                       (Column, "_expanded")), \
            Gamma(_pins_graph()) as engine:
        frequent_pattern_mining(engine, 2, 6)
    assert len(removed) == 1 and removed[0] > 0


def test_edge_extension_sorts_no_candidates():
    """Work counted, not timed: edge extension (depths 1 and 2) never
    calls ``_first_occurrence_mask``."""
    with _forbidden((extension, "_first_occurrence_mask")), \
            Gamma(_pins_graph()) as engine:
        result = frequent_pattern_mining(engine, 3, 6)
    assert result.frequent_per_level[-1] > 0


def test_a_path_end_keeps_its_one_child():
    """The last edge of a 200-edge path: one child, kept by the range
    rule (the edge before it is dead at level 1)."""
    graph = from_edge_list([(v, v + 1) for v in range(200)])
    with Gamma(graph) as engine, \
            _calls(Column, "deduplicated") as ranged:
        table = engine.new_edge_table()
        engine.seed_edges(table)
        engine.filtering(table, keep_mask=table.column_values(0)
                         == graph.num_edges - 1)
        engine.edge_extension(table)
        assert engine.dedup(table) == 0
        assert table.materialize().tolist() == [[199, 198]]
    assert len(ranged) == 1
