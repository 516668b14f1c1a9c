"""The planner's model bar, billed: on each workload the ``auto`` plan is
never slower than the ``baseline`` plan on the simulated clock, and the
two mine identical results.

``TestAutoNeverWorseThanHint`` checks the same property on *predicted*
seconds; this grid checks the seconds the simulator actually bills for a
whole run, on the stand-in datasets.
"""

import pytest

from repro.algorithms import frequent_pattern_mining, match_pattern, motif_count
from repro.core import Gamma
from repro.graph import datasets, sm_query
from repro.plan import resolve_plan

#: (workload, dataset, task, params): SM's label-sensitive queries on CL,
#: and the two edge-induced tasks on EA.
GRID = [
    ("SM(q4)", "CL", "sm", {"query": 4}),
    ("SM(q5)", "CL", "sm", {"query": 5}),
    ("SM(q6)", "CL", "sm", {"query": 6}),
    ("FPM", "EA", "fpm", {"iterations": 2, "min_support": 1}),
    ("motif-2", "EA", "motif", {"num_edges": 2}),
]


def _resolve(engine, task, params, plan):
    if task == "sm":
        return resolve_plan(engine, "sm", pattern=sm_query(params["query"]),
                            plan=plan)
    return resolve_plan(engine, task, plan=plan, **params)


def _run(graph, task, params, plan):
    """One run on a fresh engine: (result key, billed simulated seconds)."""
    with Gamma(graph) as engine:
        if task == "sm":
            r = match_pattern(engine, sm_query(params["query"]), plan=plan)
            key = (r.embeddings, r.unique_subgraphs)
        elif task == "fpm":
            r = frequent_pattern_mining(engine, params["iterations"],
                                        params["min_support"], plan=plan)
            key = sorted(r.patterns.items())
        else:
            r = motif_count(engine, params["num_edges"], plan=plan)
            key = sorted(r.histogram.items())
        return key, engine.simulated_seconds


@pytest.mark.parametrize("dataset, task, params",
                         [row[1:] for row in GRID],
                         ids=[row[0] for row in GRID])
def test_auto_plan_is_never_billed_more_than_baseline(dataset, task, params):
    graph = datasets.load(dataset)
    with Gamma(graph) as engine:
        plans = {mode: _resolve(engine, task, params, mode)
                 for mode in ("baseline", "auto")}
    base_key, base_s = _run(graph, task, params, plans["baseline"])
    auto_key, auto_s = _run(graph, task, params, plans["auto"])
    assert auto_key == base_key
    assert auto_s <= base_s, (
        f"auto billed {auto_s:.6e}s, baseline {base_s:.6e}s")
