"""Pair-level dedup by lookup, and edge extension's within-row rule.

Edge extension emits a row's candidates grouped by the row's vertices in
ascending order, so an edge joining two row vertices first appears under
the lower one; it keeps that copy by comparing each candidate's other
endpoint with the row's vertices instead of sorting the candidates.  On a
pair level it grew (``Column.edge_grown``), ``dedup_embeddings`` keeps a
child ``(p, e)`` iff ``p`` is the first level-1 row holding its edge and
no earlier level-1 row holds ``e`` — one gather on the parent level in
place of a sort of the children (``aggregation.pair_lookup_keep``).

Both must keep exactly the rows the sorts kept: ``REFERENCE`` runs the
straight-line stack of :mod:`tests.twins`, whose twin finds each pair's
first occurrence by ``np.unique``; the within-row rule is checked against
``_first_occurrence_mask`` over the candidates as extension expands them.
Tables, clock buckets and counters must agree bit for bit.
"""

from contextlib import ExitStack, contextmanager
from importlib import import_module
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.algorithms import frequent_pattern_mining
from repro.core import EDGE, EmbeddingTable, Gamma, extension
from repro.shard import worker
from repro.graph import from_edge_list
from repro.graph.generators import erdos_renyi, kronecker
from tests.twins import ARMS

aggregation = import_module("repro.core.aggregation")
FAST, REFERENCE = ARMS["fast"], ARMS["reference"]


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
    table.parts[0].compact(rng.random(table.num_embeddings) < keep_fraction)
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


def _grow(stack, scenario, check_children=False):
    """Extend and dedup the level-1 table to ``depth`` edges under
    ``stack``; every intermediate table, the clock and the counters."""
    (make_graph, kwargs), keep_fraction, repeats, depth, seed = scenario
    graph = make_graph(**kwargs)
    with stack(), Gamma(graph) as engine:
        table = _level_one(engine, graph, keep_fraction, repeats, seed)
        seen = [table.materialize().tolist()]
        for __ in range(depth - 1):
            parents_mats = table.materialize() if check_children else None
            engine.edge_extension(table)
            if check_children:
                assert ([table.column_values(-1).tolist(),
                         table.column_parents(-1).tolist()]
                        == list(_children_by_first_occurrence(
                            graph, parents_mats)))
            removed = engine.dedup(table)
            seen.append((removed, table.materialize().tolist()))
        return (seen, engine.platform.clock.snapshot(),
                engine.platform.counters.snapshot(include_zero=True))


@settings(max_examples=40, deadline=None)
@given(scenario=fpm_scenarios())
def test_lookup_matches_sort(scenario):
    """FPM-2/3/4 levels: the lookup (or the sort it falls back to) keeps
    what the sort twin keeps — same tables, clocks and counters."""
    assert _grow(FAST, scenario) == _grow(REFERENCE, scenario)


@settings(max_examples=40, deadline=None)
@given(scenario=fpm_scenarios())
def test_endpoint_rule_matches_first_occurrence(scenario):
    """Depths 1-3: the other-endpoint rule keeps exactly the candidates
    ``_first_occurrence_mask`` keeps, in the same order."""
    _grow(FAST, scenario, check_children=True)


def _pins_graph():
    return kronecker(7, 6, seed=5, labels=4, label_seed=6)


@contextmanager
def _forbidden(*targets):
    """Fail the enclosed code if it calls any ``(owner, name)``."""
    with ExitStack() as stack:
        for owner, name in targets:
            stack.enter_context(mock.patch.object(
                owner, name, side_effect=AssertionError(name)))
        yield


def test_pair_dedup_sorts_nothing():
    """Work counted, not timed: FPM-2's dedup materialises no rows and
    sorts no keys, and still removes the duplicates."""
    real = aggregation.dedup_embeddings
    removed = []

    def guarded(platform, table, cpu=False):
        with _forbidden((aggregation, "first_occurrence"),
                        (aggregation, "sorted_columns"),
                        (EmbeddingTable, "materialize")):
            removed.append(real(platform, table, cpu))
        return removed[-1]

    with mock.patch.object(worker, "dedup_embeddings", guarded), \
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


def _dedup_spied(table, platform):
    """Dedup ``table``; what :func:`pair_lookup_keep` returned, per call."""
    real, returned = aggregation.pair_lookup_keep, []

    def lookup(*args):
        returned.append(real(*args))
        return returned[-1]

    with mock.patch.object(aggregation, "pair_lookup_keep", lookup):
        removed = aggregation.dedup_embeddings(platform, table)
    return removed, returned


def test_caller_built_pairs_take_the_sort():
    """``{5, 7}`` then ``{9, 5}``: distinct sets, but read as an
    edge-grown level the lookup would drop ``{9, 5}`` as a pair row 0
    (holding 5) already made.  A table edge extension did not grow keeps
    the sort."""
    first, parents, values = (np.array(a) for a in ([5, 9], [0, 1], [7, 5]))
    assert aggregation.pair_lookup_keep(first, parents, values).tolist() == [
        True, False]
    with Gamma(_pins_graph()) as engine:
        table = EmbeddingTable(engine.platform, EDGE)
        table.seed(first)
        table.append_column(values, parents)
        removed, lookups = _dedup_spied(table, engine.platform)
    assert lookups == []
    assert removed == 0 and table.materialize().tolist() == [[5, 7], [9, 5]]


def test_a_span_over_the_bound_takes_the_sort():
    """One level-1 row at the end of a 200-edge path: its one child's ids
    span far more than two rows may map densely, so dedup sorts."""
    results = []
    for stack in (FAST, REFERENCE):
        graph = from_edge_list([(v, v + 1) for v in range(200)])
        with stack(), Gamma(graph) as engine:
            table = engine.new_edge_table()
            engine.seed_edges(table)
            table.parts[0].compact(table.column_values(0) == graph.num_edges - 1)
            engine.edge_extension(table)
            assert table.parts[0].columns[-1].edge_grown
            with mock.patch.object(aggregation, "_sorted_keep",
                                   wraps=aggregation._sorted_keep) as sort:
                removed, lookups = _dedup_spied(table.parts[0], engine.platform)
            if stack is FAST:
                assert lookups == [None] and sort.call_count == 1
            results.append((removed, table.materialize().tolist(),
                            engine.platform.clock.snapshot()))
    assert results[0] == results[1]
    assert results[0][1] == [[199, 198]]
