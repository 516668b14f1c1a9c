"""Run manifests of the :class:`~repro.core.framework.Gamma` engine.

An N-partition run has N platforms, each with its own clock buckets and
counters.  :func:`build_sharded_manifest` builds the usual per-platform
manifest for every partition (via :func:`repro.obs.manifest.build_manifest`).
One partition's document *is* the run's (plain ``gamma-manifest/1``); more
are wrapped in one merged document:

* ``counters`` — element-wise sums across shards (total simulated work);
* ``clock_buckets`` — element-wise *max* is wrong for busy-time semantics,
  so the merged view keeps the makespan (``simulated_seconds`` = slowest
  shard) and reports summed bucket seconds separately as
  ``clock_buckets_total`` (aggregate GPU-seconds per category);
* ``shards`` — the full per-shard manifests, each tagged with its index
  and utilization (1 − sync idle / shard clock);
* ``straggler`` — per-barrier gating shards, utilization skew and
  exchange-bytes share (:func:`repro.obs.profile.straggler_report`);
  present only when the run actually barriered (N > 1);
* the sharding configuration (shard count, policy, interconnect model).

:func:`canonical_manifest_bytes` strips the volatile fields
(``created_utc``, ``wall_seconds``, ``git_rev``) and serialises with
sorted keys, giving the byte string two identical sharded runs must agree
on — the determinism tests compare exactly these bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: Fields that vary run-to-run without the simulation differing.
VOLATILE_FIELDS = ("created_utc", "wall_seconds", "git_rev")

SHARD_SCHEMA = "gamma-shard-manifest/v1"


def _strip_volatile(doc: Any) -> Any:
    if isinstance(doc, dict):
        return {
            key: _strip_volatile(value)
            for key, value in doc.items()
            if key not in VOLATILE_FIELDS
        }
    if isinstance(doc, list):
        return [_strip_volatile(item) for item in doc]
    return doc


def clock_buckets_total(states) -> Dict[str, float]:
    """Per-category simulated seconds summed over partitions (GPU-seconds):
    ``states`` are manifests or :meth:`Gamma.shard_states` entries."""
    total: Dict[str, float] = {}
    for state in states:
        for key, value in state.get("clock_buckets", {}).items():
            total[key] = total.get(key, 0.0) + value
    return total


def build_sharded_manifest(
    engine,
    collector: Any = None,
    *,
    system: str | None = None,
    dataset: str | None = None,
    task: str | None = None,
    config: Any = None,
    wall_seconds: float | None = None,
    extra: Dict[str, Any] | None = None,
) -> Dict[str, Any]:
    """The manifest of a ``Gamma`` run, merged across its partitions.

    At N=1 it is partition 0's own (plain) document.  ``collector`` (bound to partition 0's platform) only contributes spans
    to partition 0's document, mirroring how telemetry attaches.
    """
    shard_docs = engine.shard_manifest_docs(
        collector, system=system, dataset=dataset, task=task, config=config,
        wall_seconds=wall_seconds if engine.num_shards == 1 else None)
    if engine.num_shards == 1:
        if extra:
            shard_docs[0]["extra"] = extra
        return shard_docs[0]
    states = engine.shard_states()
    utilizations = engine.shard_utilization(states)
    for index, doc in enumerate(shard_docs):
        doc["shard"] = index
        doc["utilization"] = utilizations[index]

    counters: Dict[str, int] = {}
    for doc in shard_docs:
        for key, value in doc.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value

    merged: Dict[str, Any] = {
        "schema": SHARD_SCHEMA,
        "system": system,
        "dataset": dataset,
        "task": task,
        "num_shards": engine.num_shards,
        "shard_policy": engine.policy,
        "interconnect": {
            "kind": engine.interconnect_spec.kind,
            "bandwidth": engine.interconnect_spec.bandwidth,
            "latency": engine.interconnect_spec.latency,
        },
        "simulated_seconds": engine.simulated_seconds,
        "sync_seconds": [state["sync_seconds"] for state in states],
        "utilization": utilizations,
        "peak_device_bytes": engine.peak_device_bytes,
        "peak_host_bytes": engine.peak_host_bytes,
        "total_peak_memory_bytes": engine.total_peak_memory_bytes,
        "counters": counters,
        "clock_buckets_total": clock_buckets_total(shard_docs),
        "shards": shard_docs,
    }
    # Straggler section: which shard gated each superstep, utilization
    # skew, exchange-bytes share.  Derived purely from simulated clocks,
    # so it is deterministic and safe inside the canonical bytes.
    if engine.barrier_log:
        from ..obs.profile.straggler import straggler_report

        merged["straggler"] = straggler_report(engine)
    # Carry volatile provenance at the top level only, so canonical bytes
    # (which strip these) cover every shard completely.
    first = shard_docs[0]
    for field in VOLATILE_FIELDS:
        if field in first:
            merged[field] = first[field]
    if wall_seconds is not None:
        merged["wall_seconds"] = wall_seconds
    if extra:
        merged["extra"] = extra
    return merged


def canonical_manifest_bytes(manifest: Dict[str, Any]) -> bytes:
    """Deterministic serialisation: volatile fields removed, keys sorted.

    Two runs of the same sharded workload must produce identical bytes —
    the simulator never reads the wall clock, so everything left is a pure
    function of (graph, config, shard count, policy).
    """
    return json.dumps(
        _strip_volatile(manifest), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
