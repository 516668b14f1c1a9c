"""Plans are tasks: ``engine.run(plan)`` executes a CompiledPlan through
the same journaling/telemetry path as a callable task."""

import dataclasses

import pytest

from repro.algorithms import (
    count_kcliques,
    frequent_pattern_mining,
    match_pattern,
    match_pattern_binary,
    motif_count,
)
from repro.core import Gamma
from repro.graph import sm_query
from repro.graph.generators import kronecker
from repro.plan import baseline_plan, execute_plan
from repro.shard import ShardedGamma


def test_sm_plan_runs_as_engine_task(random_labeled_graph):
    pattern = sm_query(1)
    plan = baseline_plan("sm", pattern)
    with Gamma(random_labeled_graph) as engine:
        via_plan = engine.run(plan)
    with Gamma(random_labeled_graph) as engine:
        direct = match_pattern(engine, pattern)
    assert via_plan.embeddings == direct.embeddings
    assert via_plan.unique_subgraphs == direct.unique_subgraphs


def test_sm_extends_in_the_order_it_is_handed():
    """Column ``j`` of a kept SM table matches query vertex ``plan.order[j]``:
    the driver runs the plan's order, not the pattern's hand-tuned one."""
    graph = kronecker(7, 6, seed=5, labels=4, label_seed=6)
    pattern = sm_query(3)
    hand = baseline_plan("sm", pattern)
    plan = dataclasses.replace(hand, order=(3, 1, 2, 0))
    assert plan.order != hand.order
    with Gamma(graph) as engine:
        __, table = match_pattern(engine, pattern, plan=plan, keep_table=True)
        rows = table.materialize()
    assert len(rows)
    column = {qv: j for j, qv in enumerate(plan.order)}
    for qv, j in column.items():
        assert (graph.labels[rows[:, j]] == pattern.label(qv)).all()
    for a, b in pattern.edges:
        assert graph.has_edges(rows[:, column[a]], rows[:, column[b]]).all()


def test_sm_binary_plan_executes(random_labeled_graph):
    pattern = sm_query(1)
    plan = baseline_plan("sm-binary", pattern)
    with Gamma(random_labeled_graph) as engine:
        via_plan = execute_plan(engine, plan)
    with Gamma(random_labeled_graph) as engine:
        direct = match_pattern_binary(engine, pattern)
    assert via_plan.embeddings == direct.embeddings


def test_fpm_plan_runs_as_engine_task(random_labeled_graph):
    plan = baseline_plan("fpm", iterations=2, min_support=2)
    with Gamma(random_labeled_graph) as engine:
        via_plan = engine.run(plan)
    with Gamma(random_labeled_graph) as engine:
        direct = frequent_pattern_mining(engine, 2, 2)
    assert via_plan.patterns == direct.patterns


def test_motif_plan_runs_sharded(random_labeled_graph):
    plan = baseline_plan("motif", num_edges=2)
    engine = ShardedGamma(random_labeled_graph, num_shards=2)
    try:
        via_plan = engine.run(plan)
    finally:
        engine.close()
    with Gamma(random_labeled_graph) as single:
        direct = motif_count(single, 2)
    assert via_plan.histogram == direct.histogram


def test_kclique_plan_executes(random_labeled_graph):
    plan = baseline_plan("kclique", k=3)
    with Gamma(random_labeled_graph) as engine:
        via_plan = execute_plan(engine, plan)
    with Gamma(random_labeled_graph) as engine:
        direct = count_kcliques(engine, 3)
    assert via_plan.cliques == direct.cliques


def test_unknown_task_raises(random_labeled_graph):
    plan = dataclasses.replace(baseline_plan("kclique", k=3),
                               task="nonsense")
    with Gamma(random_labeled_graph) as engine:
        with pytest.raises(ValueError, match="unknown plan task"):
            execute_plan(engine, plan)


def test_build_pattern_requires_a_pattern():
    plan = baseline_plan("motif", num_edges=2)
    with pytest.raises(ValueError, match="has no pattern"):
        plan.build_pattern()


def test_build_pattern_round_trips():
    pattern = sm_query(4)
    rebuilt = baseline_plan("sm", pattern).build_pattern()
    assert rebuilt.edges == pattern.edges
    assert [rebuilt.label(v) for v in range(rebuilt.num_vertices)] == \
        [pattern.label(v) for v in range(pattern.num_vertices)]


def test_describe_names_the_decisions():
    pattern = sm_query(2)
    text = baseline_plan("sm", pattern).describe()
    assert "task=sm" in text
    assert "order:" in text
    assert pattern.name in text
    fpm_text = baseline_plan("fpm", iterations=3,
                             min_support=7).describe()
    assert "level strategies" in fpm_text
    assert "min_support=7" in fpm_text
