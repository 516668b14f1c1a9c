"""Engine-state capture/restore for checkpointing and in-process rewind.

Each partition of a :class:`~repro.core.framework.Gamma` engine (a
:class:`~repro.shard.worker.ShardWorker`) journals every op and snapshots
its full state after each one (level granularity —
each extension level is one op).  This module owns what a snapshot contains
and how it is re-applied, in two modes:

* **rewind** — in-process, after a degradation policy adjusted the engine:
  restore tables/planners/clock/counters to the post-op-K state, keep the
  journal, and let replay skip ops ``1..K`` before re-running op ``K+1``
  live under the new configuration.
* **restore** — cross-process resume (``Gamma.run(..., resume=True)``): a
  fresh engine rebuilds its structures (charging whatever construction
  costs), re-installs the journaled state, then overwrites the clock,
  counters, and peaks with the checkpointed values — so a resumed run's
  accounting is bit-for-bit the uninterrupted run's.

Everything captured is checkpoint-serializable (see
:mod:`repro.resilience.checkpoint`); the capture itself is *uncharged* —
checkpointing is host-side bookkeeping, not simulated work.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["capture_state", "restore_state", "rewind"]

#: 2: each snapshot records the partition that took it.
STATE_VERSION = 2


def _planner_state(planner) -> dict:
    region = planner.region
    buffer = region.buffer
    return {
        "temporal": planner._temporal.copy(),
        "history_volume": float(planner._history_volume),
        "extension_index": int(planner._extension_index),
        "previous_hot": (
            planner._previous_hot.copy()
            if planner._previous_hot is not None else None
        ),
        "overlap": [float(v) for v in planner.hot_overlap_history],
        "region": {
            "unified_mask": region._unified_mask.copy(),
            "mode_version": int(region._mode_version),
            "buffer": {
                "capacity": int(buffer.capacity),
                "resident": buffer._resident.copy(),
                "last_use": buffer._last_use.copy(),
                "tick": int(buffer._tick),
                "n_resident": int(buffer._n_resident),
                "evictions": int(buffer.evictions),
            },
        },
    }


def _apply_planner_state(planner, state: dict) -> None:
    planner._temporal = np.array(state["temporal"], dtype=np.float64)
    planner._history_volume = float(state["history_volume"])
    planner._extension_index = int(state["extension_index"])
    previous = state.get("previous_hot")
    planner._previous_hot = (
        np.array(previous, dtype=np.int64) if previous is not None else None
    )
    planner.hot_overlap_history = [float(v) for v in state.get("overlap", [])]
    region_state = state.get("region")
    if region_state is None:
        return
    region = planner.region
    region._unified_mask = np.array(region_state["unified_mask"], dtype=bool)
    region._mode_version = int(region_state["mode_version"]) + 1
    buf_state = region_state.get("buffer")
    buffer = region.buffer
    # A degradation policy may have shrunk the page buffer between snapshot
    # and rewind; residency bookkeeping only transfers between equal-sized
    # buffers, so a resized buffer restarts cold (results are unaffected —
    # the buffer only shapes charges).
    if buf_state is not None and int(buf_state["capacity"]) == buffer.capacity:
        buffer._resident = np.array(buf_state["resident"], dtype=bool)
        buffer._last_use = np.array(buf_state["last_use"], dtype=np.int64)
        buffer._tick = int(buf_state["tick"])
        buffer._n_resident = int(buf_state["n_resident"])
        buffer.evictions = int(buf_state["evictions"])


def capture_state(gamma) -> dict:
    """Snapshot everything a resumed run needs, as a serializable dict."""
    platform = gamma.platform
    injector = platform.resilience
    return {
        "version": STATE_VERSION,
        # Which partition took the snapshot: resume checks it (a snapshot
        # of another partition count would mine a different frontier).
        "partition": {"index": gamma.index, "num_shards": gamma.num_shards,
                      "policy": gamma.policy},
        "op_count": len(gamma._journal) if gamma._journal is not None else 0,
        "journal": [
            {"kind": record["kind"], "payload": record["payload"]}
            for record in (gamma._journal or [])
        ],
        "clock": platform.clock.snapshot(),
        "counters": platform.counters.snapshot(include_zero=True),
        "host_used": int(platform._host_used),
        "host_peak": int(platform._host_peak),
        "host_registered_once": bool(platform._host_registered_once),
        "device_peak": int(platform.device.peak),
        "edge_engine": gamma._edge_engine_cache is not None,
        # Lazy residence structures whose (charged) construction must be
        # re-forced on restore so later live ops don't pay it twice.
        "edge_slots": gamma.residence._edge_slots is not None,
        "endpoints": gamma.residence._endpoints_src is not None,
        "tables": [
            {
                "kind": table.kind,
                "name": table.name,
                "columns": table.snapshot_columns(),
            }
            for table in gamma._tables
        ],
        "planners": {
            name: _planner_state(planner)
            for name, planner in gamma.planners.items()
        },
        "injector": injector.state() if injector.active else None,
        "resilience_log": [dict(e) for e in platform.resilience_log],
    }


def _apply_state(gamma, state: dict, restore_log: bool) -> None:
    platform = gamma.platform

    # Structures first: force the lazy edge engine into existence (its
    # planner/region appear in the snapshot), rebuild missing tables, and
    # reload table contents.  All construction charges are junk — the clock
    # and counters are overwritten below.
    if state.get("edge_engine"):
        __ = gamma._edge_engine
    if state.get("edge_slots"):
        __ = gamma.residence.edge_slots
    if state.get("endpoints"):
        gamma.residence._endpoints()
    for index, record in enumerate(state.get("tables", [])):
        if index < len(gamma._tables):
            table = gamma._tables[index]
        else:
            table = gamma._build_table(record["kind"], record["name"])
        table.restore_columns(record["columns"])

    for name, planner_state in state.get("planners", {}).items():
        planner = gamma.planners.get(name)
        if planner is not None:
            _apply_planner_state(planner, planner_state)

    if restore_log:
        # Cross-process resume: re-arm the injector's match counters so a
        # run resumed under the same plan replays the fault schedule
        # deterministically.  In-process rewinds deliberately skip this —
        # a fired one-shot fault already happened in this process's
        # timeline and must not refire on the retry.
        injector_state = state.get("injector")
        if injector_state is not None and platform.resilience.active:
            platform.resilience.restore_state(injector_state)
        platform.resilience_log[:] = [
            dict(e) for e in state.get("resilience_log", [])
        ]

    # Accounting last, overwriting every junk charge made above.
    platform.clock.restore(state["clock"])
    platform.counters.restore(state["counters"])
    platform._host_used = int(state["host_used"])
    platform._host_peak = int(state["host_peak"])
    platform._host_registered_once = bool(state["host_registered_once"])
    platform.device._peak = int(state["device_peak"])

    # Replay bookkeeping: skip the journaled ops, then run live.
    gamma._journal = [
        {"kind": record["kind"], "payload": record["payload"]}
        for record in state.get("journal", [])
    ]
    gamma._replay_cursor = int(state.get("op_count", len(gamma._journal)))
    gamma._op_index = 0


def restore_state(gamma, state: dict) -> None:
    """Cross-process resume: apply a loaded checkpoint to a fresh engine."""
    _apply_state(gamma, state, restore_log=True)


def rewind(gamma, state: Optional[dict] = None) -> None:
    """In-process rewind to the last snapshot (after a degradation step).

    The platform's resilience log is left as-is so the fault/degradation
    events that triggered the rewind survive into the run manifest.
    """
    if state is None:
        state = gamma._last_state
    if state is None:
        raise RuntimeError("no snapshot to rewind to")
    _apply_state(gamma, state, restore_log=False)
