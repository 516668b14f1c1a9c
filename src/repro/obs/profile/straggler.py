"""Per-barrier straggler analysis for sharded (BSP) runs.

A multi-partition ``Gamma`` closes every user-visible op with a barrier: the slowest
shard sets the superstep's makespan and every other shard charges the
difference to its ``shard_sync`` bucket.  The engine records one
``barrier_log`` entry per barrier (which shard gated it, how long each
peer waited) and one ``exchange_log`` entry per all-gather (payload bytes
per shard), so this module can answer, after the fact:

* which shard gated each superstep, and which ops it gated;
* how unevenly utilization is spread (the skew the partitioning policy
  should be closing);
* who ships the bytes — each shard's share of the exchanged payload.

Everything here is derived from deterministic simulated quantities, so
the report embeds into the canonical sharded manifest without breaking
byte-identical determinism tests.  Single-shard runs have no barriers and
produce no report (``barrier_log`` stays empty), which keeps N=1 runs
bit-identical to unsharded ``Gamma``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

__all__ = ["straggler_report", "render_straggler_report"]

STRAGGLER_SCHEMA = "gamma-straggler/1"

#: Barrier detail kept in the report (ranked by wait); the per-shard
#: aggregates always cover every barrier regardless of this cap.
MAX_BARRIER_ROWS = 12


def straggler_report(engine: Any) -> Dict[str, Any]:
    """Build the straggler report from an engine's barrier/exchange logs.

    ``engine`` is duck-typed: anything exposing ``num_shards``,
    ``barrier_log``, ``exchange_log`` and ``shard_utilization()`` works
    (``Gamma`` is the one producer).  Returns an empty-superstep
    report when no barriers were logged.
    """
    barriers: List[Dict[str, Any]] = list(getattr(engine, "barrier_log", []))
    exchanges: List[Dict[str, Any]] = list(getattr(engine, "exchange_log", []))
    num_shards = int(getattr(engine, "num_shards", 0) or 0)
    utilization = [float(u) for u in engine.shard_utilization()]

    gated = [0] * num_shards
    waits = [[] for __ in range(num_shards)]
    for entry in barriers:
        gating = int(entry["gating_shard"])
        if 0 <= gating < num_shards:
            gated[gating] += 1
        for shard, wait in enumerate(entry["waits"][:num_shards]):
            waits[shard].append(float(wait))

    sent = [0] * num_shards
    for entry in exchanges:
        for shard, payload in enumerate(entry["payload_bytes"][:num_shards]):
            sent[shard] += int(payload)
    total_sent = sum(sent)

    per_shard = []
    for shard in range(num_shards):
        per_shard.append({
            "shard": shard,
            "gated_supersteps": gated[shard],
            "wait_seconds": math.fsum(waits[shard]),
            "exchange_bytes": sent[shard],
            "exchange_share": (sent[shard] / total_sent) if total_sent else 0.0,
            "utilization": utilization[shard] if shard < len(utilization)
            else 1.0,
        })

    worst = sorted(
        barriers,
        key=lambda e: (-max(e["waits"], default=0.0), e["superstep"]),
    )[:MAX_BARRIER_ROWS]
    worst_rows = [
        {
            "superstep": entry["superstep"],
            "op": entry["op"],
            "gating_shard": entry["gating_shard"],
            "max_wait_seconds": max(entry["waits"], default=0.0),
        }
        for entry in worst
        if max(entry["waits"], default=0.0) > 0.0
    ]

    return {
        "schema": STRAGGLER_SCHEMA,
        "num_shards": num_shards,
        "supersteps": len(barriers),
        "exchanges": len(exchanges),
        "exchange_bytes_total": total_sent,
        "utilization": utilization,
        "utilization_skew": (max(utilization) - min(utilization)
                             if utilization else 0.0),
        "total_wait_seconds": math.fsum(
            w for shard_waits in waits for w in shard_waits),
        "per_shard": per_shard,
        "worst_barriers": worst_rows,
    }


def render_straggler_report(report: Dict[str, Any]) -> str:
    """Human-readable straggler summary (one table + worst barriers)."""
    if not report.get("supersteps"):
        return "(no barriers recorded; single-shard run?)"
    lines = [
        f"straggler report: {report['num_shards']} shards, "
        f"{report['supersteps']} supersteps, "
        f"{report['exchanges']} exchanges "
        f"({report['exchange_bytes_total']} bytes)",
        f"utilization skew: {report['utilization_skew']:.1%} "
        f"(total barrier wait {report['total_wait_seconds'] * 1e3:.3f} ms)",
        "",
        f"{'shard':>5s} {'gated':>6s} {'wait-ms':>10s} "
        f"{'exch-bytes':>11s} {'share':>6s} {'util':>6s}",
    ]
    for row in report["per_shard"]:
        lines.append(
            f"{row['shard']:5d} {row['gated_supersteps']:6d} "
            f"{row['wait_seconds'] * 1e3:10.3f} "
            f"{row['exchange_bytes']:11d} "
            f"{row['exchange_share'] * 100:5.1f}% "
            f"{row['utilization'] * 100:5.1f}%"
        )
    worst = report.get("worst_barriers") or []
    if worst:
        lines.append("")
        lines.append("worst barriers (by peer wait):")
        for entry in worst:
            lines.append(
                f"  superstep {entry['superstep']:3d}  "
                f"{entry['op']:<24s} gated by shard "
                f"{entry['gating_shard']}  "
                f"max wait {entry['max_wait_seconds'] * 1e3:.3f} ms"
            )
    return "\n".join(lines)
