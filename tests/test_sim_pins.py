"""Simulated time and counters, pinned across revisions.

Every scenario below is a small deterministic run whose
``float.hex(simulated_seconds)`` and full counter snapshot are committed
in ``sim_pins.json``.  A perf change to a hot path must leave every one
of them bit-identical: the cost model bills the algorithm, not the host
code that computes its result.  A change that *means* to move the cost
model re-records the pins on purpose::

    PYTHONPATH=src python -m tests.test_sim_pins --record

and says so in CHANGES.md.  A failure names the counters that differ.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    count_kcliques,
    frequent_pattern_mining,
    graphlet_census,
    match_pattern,
    motif_count,
)
from repro.baselines import PangolinGPU
from repro.core import Gamma, GammaConfig
from repro.errors import QueryPreempted
from repro.graph import sm_query
from repro.graph.generators import erdos_renyi, kronecker
from repro.shard import ShardedGamma

PINS_PATH = Path(__file__).with_name("sim_pins.json")


def _graph(labels=4):
    return kronecker(7, 6, seed=5, name="pin-standin", labels=labels,
                     label_seed=6)


def _fpm(iterations, metric, plan):
    return lambda engine: frequent_pattern_mining(
        engine, iterations, 6, support_metric=metric, plan=plan)


def _tight_device():
    """An engine whose device (1 MiB, prealloc, most of it page buffer)
    cannot hold kCL-4's first extension in one piece: ``halve-chunk``
    engages seven times and leaves ``chunk_rows`` at 256 for levels of
    40 000 and 10 732 rows."""
    return Gamma(erdos_renyi(2000, 40000, seed=11),
                 GammaConfig(write_strategy="prealloc",
                             device_memory_bytes=1 << 20,
                             buffer_fraction=0.7))


def _pangolin_gpu():
    """Pangolin-GPU: in core, and every extension runs twice, billing the
    count pass, the exclusive scan over per-row counts and the write pass
    (its answer to the write conflict GAMMA's Optimization 1 removes)."""
    return PangolinGPU(_graph())


def _sorting_fpm(method):
    """FPM on a 128 KiB device with checkpoints every 32 keys: level 2's
    8 243 canonical codes sort in 3 segments and merge in 35 subtasks."""
    return lambda: Gamma(_graph(), GammaConfig(device_memory_bytes=1 << 17,
                                               p_size=32, sort_method=method))


def _host_rows(table):
    """Every row of a resident table, walked host-side (uncharged)."""
    n = table.num_embeddings
    out = np.empty((n, table.depth), dtype=np.int64)
    current = np.arange(n, dtype=np.int64)
    for level in range(table.depth - 1, -1, -1):
        out[:, level] = table.column_values(level)[current]
        current = table.column_parents(level)[current]
    return out


def _kept_rows(engine):
    """SM(q3) with the table kept: the count and a digest of the rows, read
    host-side (uncharged) the way the table stores them."""
    result, table = match_pattern(engine, sm_query(3), keep_table=True)
    return {"embeddings": result.embeddings,
            "rows_sha256": hashlib.sha256(_host_rows(table).tobytes()).hexdigest()}


#: name -> (shards, driver), or (shards, driver, labels) on a graph with
#: another label count than 4 (q4-q6 ask for label 7); ``shards`` may be a
#: callable building the whole engine instead, and a driver returning a
#: dict has it pinned as the answer.  FPM covers both iteration depths, both
#: support metrics (MNI is single-shard only), both plan sources and both
#: engines; SM and k-clique cover the vertex-extension side, with and
#: without ordering restrictions, on both engines (q4-q6 hold the labelled
#: levels whose tail is not an anchor, one anchor and two); graphlets cover
#: the union extension (ordered on column 0), motifs the edge-extension one.
#: kCL-5 holds two consecutive levels whose prefix intersection is the
#: column before; the halve-chunk run extends in chunks smaller than the
#: table; the kept table pins the rows themselves, not only their count;
#: the two sorting FPM runs reach the segment sort's multi-merge, both
#: variants (the default device holds every level in one segment); the
#: Pangolin-GPU runs bill the two-pass write strategy and the in-core
#: aggregation (scratch and sort) of a pair level.
SCENARIOS = {
    "fpm2-instances-baseline": (1, _fpm(2, "instances", None)),
    "fpm2-instances-multimerge": (_sorting_fpm("multi_merge"),
                                  _fpm(2, "instances", None)),
    "fpm2-instances-naivemerge": (_sorting_fpm("naive_merge"),
                                  _fpm(2, "instances", None)),
    "fpm3-instances-auto": (1, _fpm(3, "instances", "auto")),
    "fpm2-mni-auto": (1, _fpm(2, "mni", "auto")),
    "fpm3-mni-baseline": (1, _fpm(3, "mni", None)),
    "fpm3-instances-baseline-2shard": (2, _fpm(3, "instances", None)),
    "fpm2-instances-auto-2shard": (2, _fpm(2, "instances", "auto")),
    "sm-q3": (1, lambda engine: match_pattern(engine, sm_query(3))),
    "sm-q4": (1, lambda engine: match_pattern(engine, sm_query(4)), 8),
    "sm-q5": (1, lambda engine: match_pattern(engine, sm_query(5)), 8),
    "sm-q6": (1, lambda engine: match_pattern(engine, sm_query(6)), 8),
    "sm-q4-2shard": (2, lambda engine: match_pattern(engine, sm_query(4)), 8),
    "kcl4": (1, lambda engine: count_kcliques(engine, 4)),
    "sm-q3-symmetry-broken": (1, lambda engine: match_pattern(
        engine, sm_query(3), symmetry_breaking=True)),
    "kcl4-2shard": (2, lambda engine: count_kcliques(engine, 4)),
    "kcl5": (1, lambda engine: count_kcliques(engine, 5)),
    "kcl5-2shard": (2, lambda engine: count_kcliques(engine, 5)),
    "kcl4-halve-chunk": (_tight_device, lambda engine: engine.run(
        lambda inner: count_kcliques(inner, 4), policy="halve-chunk")),
    "kcl4-pangolin-gpu": (_pangolin_gpu, lambda engine: count_kcliques(engine, 4)),
    "fpm2-instances-pangolin-gpu": (_pangolin_gpu, _fpm(2, "instances", None)),
    "sm-q3-keep-table": (1, _kept_rows),
    "motif3": (1, lambda engine: motif_count(engine, 3)),
    "graphlets4": (1, lambda engine: graphlet_census(engine, 4)),
}


#: name -> (driver taking ``(engine, level_hook)``, the result field that
#: is the answer): the query is suspended at
#: its second level boundary (table, seed and one extension journaled, so
#: the snapshot holds a two-column table) and finished on a fresh engine.
#: What is pinned is the *engine-total* simulated seconds of the second
#: engine, which is what the serve tier bills.
RESUMED = {
    "kcl4-resumed": (lambda engine, hook: count_kcliques(
        engine, 4, level_hook=hook), "cliques"),
    "sm-q3-resumed": (lambda engine, hook: match_pattern(
        engine, sm_query(3), level_hook=hook), "embeddings"),
}
#: How the snapshot reaches the second engine; both must land on one pin.
ROUTES = ("disk", "memory")


def _suspend_at_level_2(info: dict) -> None:
    if info["level"] == 2:
        raise QueryPreempted(level=2)


def observe_resumed(name: str, route: str = "disk") -> dict:
    """Suspend one ``RESUMED`` scenario, resume it on a fresh engine over
    ``route``; the answer plus the second engine's totals."""
    drive, answer = RESUMED[name]
    graph = _graph()
    with tempfile.TemporaryDirectory() as scratch:
        journal = scratch if route == "disk" else None
        with Gamma(graph) as first:
            with pytest.raises(QueryPreempted):
                first.run(lambda engine: drive(engine, _suspend_at_level_2),
                          checkpoint_dir=journal)
            handed = first.snapshot() if route == "memory" else None
        with Gamma(graph) as second:
            result = second.run(lambda engine: drive(engine, None),
                                checkpoint_dir=journal, resume=True,
                                resume_state=handed)
            return {
                "answer": getattr(result, answer),
                "simulated_seconds": float.hex(second.simulated_seconds),
                "counters": second.platform.counters.snapshot(
                    include_zero=True),
            }


def observe(name: str, executor: str | None = None) -> dict:
    """Run one scenario; its simulated seconds and every counter (per
    shard, prefixed, on a sharded engine, which runs on ``executor``)."""
    if name in RESUMED:
        return observe_resumed(name)
    shards, drive, *labels = SCENARIOS[name]
    if callable(shards):
        engine, shards = shards(), 1
    elif shards == 1:
        engine = Gamma(_graph(*labels))
    else:
        engine = ShardedGamma(_graph(*labels), num_shards=shards,
                              executor=executor)
    with engine:
        answer = drive(engine)
        if shards == 1:
            counters = engine.platform.counters.snapshot(include_zero=True)
        else:
            counters = {
                f"shard{index}.{key}": value
                for index, state in enumerate(engine.shard_states())
                for key, value in state["counters"].items()
            }
        pinned = {"simulated_seconds": float.hex(engine.simulated_seconds),
                  "counters": counters}
        if isinstance(answer, dict):
            pinned["answer"] = answer
        return pinned


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def differences(got: dict, want: dict) -> list[str]:
    """One line per pinned quantity that moved."""
    lines = []
    if got.get("answer") != want.get("answer"):
        lines.append(f"answer: {want.get('answer')} -> {got.get('answer')}")
    if got["simulated_seconds"] != want["simulated_seconds"]:
        lines.append(
            f"simulated_seconds: {float.fromhex(want['simulated_seconds'])!r}"
            f" -> {float.fromhex(got['simulated_seconds'])!r}")
    for key in sorted(set(got["counters"]) | set(want["counters"])):
        old, new = want["counters"].get(key), got["counters"].get(key)
        if old != new:
            lines.append(f"{key}: {old} -> {new}")
    return lines


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_matches_pins(name):
    moved = differences(observe(name), _pins()[name])
    assert not moved, f"{name}: billing changed\n  " + "\n  ".join(moved)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(RESUMED))
def test_resumed_simulation_matches_pins(name, route):
    moved = differences(observe_resumed(name, route), _pins()[name])
    assert not moved, (f"{name} over {route}: billing changed\n  "
                       + "\n  ".join(moved))


def test_resuming_bills_what_the_uninterrupted_run_bills():
    pins = _pins()
    for name in RESUMED:
        whole = pins[name[:-len("-resumed")]]
        assert pins[name]["simulated_seconds"] == whole["simulated_seconds"]
        assert pins[name]["counters"] == whole["counters"]


@pytest.mark.parametrize("name", ["fpm2-instances-multimerge",
                                  "fpm2-instances-naivemerge"])
def test_sorting_pins_reach_the_multi_merge(name, monkeypatch):
    """Level 2's ``sort_and_count`` spans >= 3 segments and >= 16
    subtasks, so these pins bill the merge phase."""
    aggregation = sys.modules["repro.core.aggregation"]
    shards, drive = SCENARIOS[name]
    launches, per_sort = [], []
    real_sort = aggregation.sort_and_count

    def sort_and_count(platform, *args, **kwargs):
        first = len(launches)
        out = real_sort(platform, *args, **kwargs)
        per_sort.append(launches[first:])
        return out

    monkeypatch.setattr(aggregation, "sort_and_count", sort_and_count)
    with shards() as engine:
        real_launch = engine.platform.kernel.launch
        monkeypatch.setattr(
            engine.platform.kernel, "launch",
            lambda kernel, *a, **k: launches.append(kernel) or real_launch(kernel, *a, **k))
        drive(engine)
    level2 = per_sort[-1]
    assert level2.count("segment-sort") >= 3
    assert level2.count("multi-merge:subtask") >= 16


def test_every_pin_has_a_scenario():
    assert sorted(_pins()) == sorted([*SCENARIOS, *RESUMED])


def test_differences_name_what_moved():
    want = {"simulated_seconds": float.hex(1.0), "counters": {"a": 1, "b": 2}}
    got = {"simulated_seconds": float.hex(1.5), "counters": {"a": 1, "c": 3}}
    assert differences(want, want) == []
    assert differences(got, want) == [
        "simulated_seconds: 1.0 -> 1.5", "b: 2 -> None", "c: None -> 3"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_sim_pins --record")
    PINS_PATH.write_text(
        json.dumps({name: observe(name)
                    for name in sorted([*SCENARIOS, *RESUMED])},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(SCENARIOS) + len(RESUMED)} scenarios -> {PINS_PATH}")
