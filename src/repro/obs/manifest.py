"""Run manifests: one JSON document that pins *what ran* and *what it cost*.

A manifest captures the configuration (knobs, dataset, git revision) next
to the results (counter totals, simulated-time buckets, span statistics,
metric aggregates, derived utilization figures), so two runs can be diffed
mechanically: ``repro report --against`` calls :func:`diff_manifests`.

Simulated time and counters are deterministic for a fixed configuration,
so any drift between two manifests of the same workload is a real
behavioural change, not noise — which is what makes the regression gate
trustworthy at tight thresholds.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import subprocess
import time
from typing import Any, Dict, List, Optional

SCHEMA = "gamma-manifest/1"

#: Schemas :func:`load_manifest` accepts: this module's and the sharded
#: merge's (``gamma-shard-manifest/v1``).
MANIFEST_SCHEMA_PREFIXES = ("gamma-manifest/", "gamma-shard-manifest/")

#: Counter deltas smaller than this never count as regressions (guards
#: tiny workloads where +1 transaction is a huge ratio).
DEFAULT_COUNTER_FLOOR = 8


@functools.lru_cache(maxsize=None)
def git_revision(root: "pathlib.Path | None" = None) -> str:
    """Short git revision of ``root`` (or the CWD); ``unknown`` off-repo.
    Looked up once per ``root`` and process: a manifest a query runs no git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def _config_dict(config: Any) -> "Dict[str, Any] | None":
    if config is None:
        return None
    if isinstance(config, dict):
        return config
    import dataclasses
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return {"repr": repr(config)}


def _derived_metrics(platform: Any) -> Dict[str, float]:
    """Utilization figures relative to the cost-model ceilings."""
    from ..gpusim import clock as clk
    from ..gpusim import stats as st
    derived: Dict[str, float] = {}
    counters, clock, cost = platform.counters, platform.clock, platform.cost
    pcie_seconds = (clock.time_in(clk.PCIE_UNIFIED)
                    + clock.time_in(clk.PCIE_ZEROCOPY)
                    + clock.time_in(clk.PCIE_EXPLICIT))
    pcie_bytes = counters.get(st.BYTES_H2D) + counters.get(st.BYTES_D2H)
    if pcie_seconds > 0:
        achieved = pcie_bytes / pcie_seconds
        derived["pcie_achieved_bytes_per_s"] = achieved
        derived["pcie_utilization"] = achieved / cost.pcie_bandwidth
    device_seconds = clock.time_in(clk.DEVICE_MEM)
    if device_seconds > 0:
        achieved = counters.get(st.BYTES_DEVICE) / device_seconds
        derived["device_achieved_bytes_per_s"] = achieved
        derived["device_utilization"] = achieved / cost.device_bandwidth
    faults = counters.get(st.PAGE_FAULTS)
    hits = counters.get(st.PAGE_HITS)
    if faults + hits:
        derived["page_hit_rate"] = hits / (faults + hits)
    return derived


def build_manifest(platform: Any, collector: Any = None, *,
                   system: "str | None" = None,
                   dataset: "str | None" = None,
                   task: "str | None" = None,
                   config: Any = None,
                   wall_seconds: "float | None" = None,
                   extra: "Dict[str, Any] | None" = None) -> Dict[str, Any]:
    """Assemble the manifest for one finished run."""
    manifest: Dict[str, Any] = {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_revision(),
        "system": system,
        "dataset": dataset,
        "task": task,
        "config": _config_dict(config),
        "simulated_seconds": platform.clock.total,
        "clock_buckets": platform.clock.snapshot(),
        "counters": platform.counters.snapshot(include_zero=True),
        "derived": _derived_metrics(platform),
        "peak": {
            "device_bytes": getattr(platform.device, "peak", 0),
            "host_bytes": platform.host_peak,
        },
    }
    resilience = resilience_section(getattr(platform, "resilience_log", []))
    if resilience:
        manifest["resilience"] = resilience
    if wall_seconds is not None:
        manifest["wall_seconds"] = wall_seconds
    if collector is not None:
        attach_collector_summary(manifest, collector)
    if extra:
        manifest["extra"] = extra
    return manifest


def resilience_section(events) -> "Dict[str, Any] | None":
    """A manifest's ``resilience`` block -- the events and their counts by
    ``type:kind`` (or ``type:policy``) -- or ``None`` without events."""
    events = list(events)
    if not events:
        return None
    by_type: Dict[str, int] = {}
    for event in events:
        key = event.get("type", "unknown")
        if event.get("kind"):
            key = f"{key}:{event['kind']}"
        elif event.get("policy"):
            key = f"{key}:{event['policy']}"
        by_type[key] = by_type.get(key, 0) + 1
    return {"events": events, "by_type": by_type}


def attach_collector_summary(manifest: Dict[str, Any],
                             collector: Any) -> Dict[str, Any]:
    """Fold a collector's span/metric summary into ``manifest`` in place.

    Split out of :func:`build_manifest` so the sharded process executor can
    attach the *coordinator's* (grafted) collector to a manifest document
    that was assembled inside a worker process.
    """
    by_kind: Dict[str, int] = {}
    for span in collector.walk():
        by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
    root = collector.root
    manifest["spans"] = {
        "count": len(collector.spans),
        "max_depth": collector.max_depth(),
        "by_kind": by_kind,
    }
    if root is not None and "wall_seconds" not in manifest:
        manifest["wall_seconds"] = root.wall_seconds
    manifest["metrics"] = collector.metrics.summary()
    return manifest


def attach_query_tags(manifest: Dict[str, Any], *, query_id: int,
                      tenant: str, priority: int = 0,
                      **fields: Any) -> Dict[str, Any]:
    """Tag a manifest with serve-layer query identity, in place.

    The serve scheduler stamps every per-query manifest with the tenant
    and query id so a manifest doubles as the technical half of a billing
    record (``repro.serve.records`` holds the QoS half); extra keyword
    fields (family, plan id, ...) ride along verbatim.
    """
    manifest["query"] = {"id": query_id, "tenant": tenant,
                         "priority": priority, **fields}
    return manifest


def write_manifest(manifest: Dict[str, Any],
                   path: "str | pathlib.Path") -> pathlib.Path:
    target = pathlib.Path(path)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def load_manifest(path: "str | pathlib.Path") -> Dict[str, Any]:
    """Read a run manifest, single-engine or sharded.

    Raises ``OSError`` when ``path`` cannot be read and ``ValueError``
    when it is not JSON or its ``schema`` names no run manifest.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if not str(schema).startswith(MANIFEST_SCHEMA_PREFIXES):
        raise ValueError(f"not a run manifest (schema {schema!r})")
    return data


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def diff_manifests(baseline: Dict[str, Any], candidate: Dict[str, Any],
                   counter_threshold: float = 0.10,
                   time_threshold: float = 0.05,
                   counter_floor: int = DEFAULT_COUNTER_FLOOR,
                   ) -> List[Dict[str, Any]]:
    """Compare two manifests; returns findings, regressions flagged.

    A counter regresses when it grows by more than ``counter_threshold``
    relatively *and* more than ``counter_floor`` absolutely.  Simulated
    time regresses past ``time_threshold`` (it is deterministic, so the
    threshold only absorbs intentional cost-model tweaks).  Improvements
    are reported informationally; they never fail the gate.
    """
    findings: List[Dict[str, Any]] = []

    def finite(value: Any) -> bool:
        return isinstance(value, (int, float)) and math.isfinite(value)

    def note(kind: str, name: str, base: float, cand: float,
             regression: bool) -> None:
        ratio: Optional[float] = (
            (cand / base) if (finite(base) and finite(cand) and base)
            else None)
        findings.append({
            "kind": kind, "name": name, "baseline": base, "candidate": cand,
            "ratio": ratio, "regression": regression,
        })

    base_counters = baseline.get("counters", {})
    cand_counters = candidate.get("counters", {})
    for name in sorted(set(base_counters) | set(cand_counters)):
        raw_base = base_counters.get(name, 0)
        raw_cand = cand_counters.get(name, 0)
        if not finite(raw_base) or not finite(raw_cand):
            # NaN/inf guard: a non-finite candidate is a broken run and
            # fails the gate; a non-finite baseline (candidate fine) only
            # warns — recovery from a corrupt baseline must not fail.
            note("counter", name, raw_base, raw_cand,
                 regression=not finite(raw_cand))
            continue
        base = int(raw_base)
        cand = int(raw_cand)
        if cand == base:
            continue
        grew = cand - base
        if base:
            regression = (grew > counter_floor
                          and grew / base > counter_threshold)
            shrank = -grew > counter_floor and -grew / base > counter_threshold
        else:
            regression = grew > counter_floor
            shrank = False
        if regression or shrank:
            note("counter", name, base, cand, regression)

    base_sim = float(baseline.get("simulated_seconds", 0.0))
    cand_sim = float(candidate.get("simulated_seconds", 0.0))
    if not math.isfinite(cand_sim):
        # NaN never compares > threshold, so without this guard a NaN
        # candidate would sail through the gate silently.
        note("sim_time", "simulated_seconds", base_sim, cand_sim,
             regression=True)
    elif not math.isfinite(base_sim):
        note("sim_time", "simulated_seconds", base_sim, cand_sim,
             regression=False)
    elif base_sim > 0 and abs(cand_sim - base_sim) / base_sim > time_threshold:
        note("sim_time", "simulated_seconds", base_sim, cand_sim,
             regression=cand_sim > base_sim)
    elif base_sim == 0.0 and cand_sim > 0.0:
        # Zero-baseline: no ratio exists; report the appearance of
        # simulated time informationally rather than dividing by zero or
        # staying silent.
        note("sim_time", "simulated_seconds", base_sim, cand_sim,
             regression=False)

    base_res = (baseline.get("resilience") or {}).get("by_type", {})
    cand_res = (candidate.get("resilience") or {}).get("by_type", {})
    for name in sorted(set(base_res) | set(cand_res)):
        base = int(base_res.get(name, 0))
        cand = int(cand_res.get(name, 0))
        if cand == base:
            continue
        # Fault/degradation schedules are deterministic for a fixed plan, so
        # any event-count drift is a behavioural change worth flagging; only
        # *new* event types count as regressions (a run newly degrading is a
        # problem, a fault plan firing less often is not).
        note("resilience", name, base, cand, regression=cand > base)

    return findings


def format_findings(findings: List[Dict[str, Any]]) -> str:
    """Human-readable one-liner per finding."""
    if not findings:
        return "no differences beyond thresholds"
    lines = []
    for f in findings:
        tag = "REGRESSION" if f["regression"] else "note"
        ratio = f" ({f['ratio']:.2f}x)" if isinstance(f["ratio"], float) else ""
        lines.append(
            f"[{tag}] {f['kind']}:{f['name']} "
            f"{f['baseline']} -> {f['candidate']}{ratio}")
    return "\n".join(lines)
