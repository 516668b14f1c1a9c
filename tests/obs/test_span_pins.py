"""Every span record of three fixed runs, pinned across revisions.

A span keeps raw entry/exit snapshots while the run is timed and works out
its deltas on first read.  That must not move a single record: names,
tree links, counter and bucket deltas (inclusive and self) and simulated
bounds (as ``float.hex``) of every span equal ``span_pins.json``.  Wall
times are the only fields left out.  Re-record only when the
instrumentation is meant to change::

    PYTHONPATH=src python -m tests.obs.test_span_pins --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.algorithms import count_kcliques, frequent_pattern_mining
from repro.core import Gamma
from repro.graph.generators import erdos_renyi, kronecker
from repro.obs.exporters import span_tree_records

PINS_PATH = Path(__file__).with_name("span_pins.json")


def _fpm(engine):
    frequent_pattern_mining(engine, 2, 6)


def _kcl(engine):
    count_kcliques(engine, 4)


SCENARIOS = {
    "fpm2-one-gpu": (lambda: Gamma(kronecker(7, 6, seed=5, labels=4, label_seed=6),
                                   executor="serial"),
                     _fpm),
    "kcl4-two-serial": (lambda: Gamma(erdos_renyi(30, 100, seed=9, labels=3),
                                      num_shards=2, policy="degree", executor="serial"),
                        _kcl),
    "kcl4-two-process": (lambda: Gamma(erdos_renyi(30, 100, seed=9, labels=3),
                                       num_shards=2, policy="degree", executor="process"),
                         _kcl),
}


def _hex(values):
    return {key: float.hex(float(value)) for key, value in sorted(values.items())}


def observe(name: str) -> list:
    build, task = SCENARIOS[name]
    collector = obs.install(obs.SpanCollector())
    try:
        engine = build()
        try:
            task(engine)
            engine.finalize_telemetry()
            collector.finish()
        finally:
            engine.close()
    finally:
        obs.uninstall(collector)
    records = []
    for span, record in zip(collector.walk(), span_tree_records(collector)):
        record.pop("wall_seconds")
        record.pop("wall_self_seconds")
        for key in ("sim_buckets", "sim_self"):
            record[key] = _hex(record[key])
        for key in ("sim_seconds", "sim_self_seconds"):
            record[key] = float.hex(record[key])
        record["sim0"], record["sim1"] = float.hex(span.sim0), float.hex(span.sim1)
        record["attrs"] = {key: value for key, value in sorted(span.attrs.items())
                           if isinstance(value, (int, str, bool))}
        records.append(record)
    return records


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_span_records_match_the_pins(name):
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))[name]
    got = json.loads(json.dumps(observe(name)))
    assert len(got) == len(pinned)
    for mine, theirs in zip(got, pinned):
        assert mine == theirs, (mine["index"], mine["name"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.obs.test_span_pins --record")
    PINS_PATH.write_text(json.dumps({name: observe(name) for name in sorted(SCENARIOS)},
                                    indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(SCENARIOS)} scenarios -> {PINS_PATH}")
