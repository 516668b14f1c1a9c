"""Result documents: the contract line, the full document, its checks, `agree`.

``BENCHMARK.json`` is the schema: metric names, units, directions and the
regression bounds all come from it, so there is one place to change them.
"""

from __future__ import annotations

import json
import math
import time

from benchmarks.perf import stats
from benchmarks.perf.env import ROOT, HarnessError
from benchmarks.perf.workloads import ABSENT, NAMES

SCHEMA = "gamma-perf/1"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
#: End-to-end metrics the result document carries beyond ``BENCHMARK.json``'s
#: list, which may only hold metrics that are a non-zero number on every
#: workload: the tail (null where fewer than ten samples lie beyond it) and the
#: failure share (zero when all is well, and bounded absolutely).
TAIL = {"name": "query_p95_s", "unit": "s", "better": "lower", "bound": 0.25}
FAILED = {"name": "failed_frac", "unit": "1", "better": "lower", "bound": 0.0}
#: Exact simulator figures: bit-identical between launches and host-speed PRs.
EXACT = ("gpusim.sim_s", "gpusim.page_faults", "gpusim.pcie_bytes", "gpusim.zerocopy_txn")


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def per_layer(leg: dict, benchmark: dict) -> dict:
    """Every per-layer metric of a traced leg by name.  The ones its workload
    declares it has no measurement for (``workloads.ABSENT``) are 0; any other
    that is missing, or a declared-absent one that was measured, is an error."""
    absent = ABSENT[leg["workload"]]
    values = {}
    for spec in benchmark["per_layer"]:
        name = spec["name"]
        declared_absent = name.startswith(absent)
        if (name in leg["metrics"]) == declared_absent:
            raise HarnessError(f"{leg['workload']}: per-layer metric {name} " + (
                "is declared absent but was measured" if declared_absent
                else "was not measured"))
        values[name] = 0.0 if declared_absent else float(leg["metrics"][name])
    return values


def contract_line(leg: dict, benchmark: dict) -> dict:
    """The one JSON object the ``BENCHMARK.json`` contract wants last on stdout."""
    if leg["traced"]:
        values = per_layer(leg, benchmark)
    else:
        values = {spec["name"]: float(leg["metrics"][spec["name"]])
                  for spec in benchmark["end_to_end"]}
    units = {spec["name"]: spec["unit"] for spec in benchmark["per_layer" if leg["traced"]
                                                              else "end_to_end"]}
    return {"correct": leg["failed"] == 0, "attempted": leg["attempted"],
            "failed": leg["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def build_result(seed, seconds, smoke, host, legs: dict, benchmark: dict) -> dict:
    """``legs[workload] = ([untraced leg of each pass], traced leg)`` -> the
    result document.  An end-to-end metric is the median of its passes."""
    workloads = {}
    for name, (passes, traced) in legs.items():
        entry = {"unarmed": traced["unarmed"],
                 "why": next(w["why"] for w in benchmark["workloads"] if w["name"] == name)}
        if traced["unarmed"]:
            entry["unarmed_reason"] = traced["unarmed_reason"]
            entry["end_to_end"] = {spec["name"]: None for spec in
                                   benchmark["end_to_end"] + [TAIL, FAILED]}
            entry["per_layer"] = {spec["name"]: None for spec in benchmark["per_layer"]}
            workloads[name] = entry
            continue
        attempted = sum(leg["attempted"] for leg in passes) + traced["attempted"]
        failures = [f for leg in passes for f in leg["failures"]] + traced["failures"]
        per_pass = {spec["name"]: [leg["metrics"][spec["name"]] for leg in passes]
                    for spec in benchmark["end_to_end"]}
        per_pass[TAIL["name"]] = [leg["query_p95_s"] for leg in passes]
        entry["end_to_end"] = {}
        for metric, values in per_pass.items():
            known = [value for value in values if value is not None]  # the tail may be null
            entry["end_to_end"][metric] = stats.median(known) if known else None
        entry["end_to_end"][FAILED["name"]] = len(failures) / attempted
        entry["per_layer"] = per_layer(traced, benchmark)
        entry["not_on_this_workload"] = sorted(
            set(entry["per_layer"]) - set(traced["metrics"]))
        entry["trace"] = traced["trace"]
        entry["graph"] = passes[0].get("graph")
        entry["answers"] = passes[0]["answers"]
        entry["reference"] = passes[0]["reference"]
        entry["attempted"] = attempted
        entry["failed"] = len(failures)
        entry["failures"] = failures
        entry["samples"] = {
            "passes": per_pass,
            "queries": [leg["queries"] for leg in passes],
            "traced_queries": traced["queries"],
            "latencies_s": [leg["latencies_s"] for leg in passes],
            "setup_samples_s": [leg["setup_samples_s"] for leg in passes],
            "sim_s": passes[0]["sim_s"],
        }
        entry["host"] = passes[0]["host"]
        workloads[name] = entry
    return {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": bool(smoke),
        "seed": seed,
        "seconds": seconds,
        "host": host,
        "workloads": workloads,
    }


def validate(result: dict, benchmark: dict) -> list:
    """Problems that make ``result`` not a document of this schema."""
    problems = []
    if result.get("schema") != SCHEMA:
        problems.append(f"schema is {result.get('schema')!r}, not {SCHEMA!r}")
    for name in NAMES:
        entry = result.get("workloads", {}).get(name)
        if entry is None:
            problems.append(f"{name}: missing")
            continue
        for section, specs in (("end_to_end", benchmark["end_to_end"] + [TAIL, FAILED]),
                               ("per_layer", benchmark["per_layer"])):
            for spec in specs:
                value = entry.get(section, {}).get(spec["name"], "absent")
                nullable = entry["unarmed"] or spec is TAIL
                if value is None and nullable:
                    continue
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name}: {section}.{spec['name']} is {value!r}")
    return problems


def render(result: dict, benchmark: dict) -> str:
    """Every metric by name, with its unit, one block per workload."""
    lines = [f"schema {result['schema']}  seed {result['seed']}  "
             f"smoke {result['smoke']}  nproc {result['host']['nproc']}  "
             f"rev {result['host']['git_rev']}"]
    for name, entry in result["workloads"].items():
        lines.append(f"\n== {name}" + ("  (UNARMED: " + entry["unarmed_reason"] + ")"
                                        if entry["unarmed"] else ""))
        for section, specs in (("end_to_end", benchmark["end_to_end"] + [TAIL, FAILED]),
                               ("per_layer", benchmark["per_layer"])):
            lines.append(f"  -- {section}")
            for spec in specs:
                value = entry[section][spec["name"]]
                lines.append(f"  {spec['name']:<38} {_shown(value):>14} {spec['unit']}")
        if not entry["unarmed"]:
            lines.append(f"  answers {entry['answers']}; attempted {entry['attempted']}, "
                         f"failed {entry['failed']}; timed queries per pass "
                         f"{entry['samples']['queries']}")
            for failure in entry["failures"]:
                lines.append(f"  FAILED: {json.dumps(failure, sort_keys=True)}")
    return "\n".join(lines)


# -- agree ------------------------------------------------------------------------------------
def _own_spread(entry: dict, metric: str) -> "float | None":
    """A launch's own quartile spread of ``metric`` over its passes."""
    values = [value for value in entry["samples"]["passes"].get(metric, [])
              if value is not None]
    return stats.quartile_spread(values) if len(values) >= 2 else None


def agree(first: dict, second: dict, benchmark: dict) -> "tuple[list, bool]":
    """Rows comparing two result documents of one commit, and whether they agree.

    A row is ``unresolved`` when either launch's own quartile spread exceeds
    the metric's bound (the launches cannot tell), else ``ok`` when the
    second value is within the bound of the first (the ratio's base), else
    ``DISAGREE``.  The exact simulator figures must be identical.
    """
    for key in ("schema", "smoke", "seed", "seconds"):
        if first.get(key) != second.get(key):
            raise ValueError(f"documents differ in {key!r}: "
                             f"{first.get(key)!r} vs {second.get(key)!r}")
    rows, all_ok = [], True
    for name in NAMES:
        a, b = first["workloads"][name], second["workloads"][name]
        if a["unarmed"] or b["unarmed"]:
            rows.append((name, "*", None, None, None, "unarmed"))
            all_ok = False
            continue
        for spec in benchmark["end_to_end"] + [TAIL, FAILED]:
            metric, bound = spec["name"], spec["bound"]
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            if x is None and y is None:
                rows.append((name, metric, x, y, None, "n/a"))
                continue
            if spec is FAILED:
                verdict = "ok" if x == 0 and y == 0 else "DISAGREE"
                ratio = None
            elif x is None or y is None or not x:
                ratio, verdict = None, "DISAGREE"
            else:
                ratio = y / x
                spreads = [s for s in (_own_spread(a, metric), _own_spread(b, metric))
                           if s is not None]
                if any(s > bound for s in spreads):
                    verdict = "unresolved"
                elif abs(ratio - 1.0) <= bound:
                    verdict = "ok"
                else:
                    verdict = "DISAGREE"
            all_ok &= verdict == "ok"
            rows.append((name, metric, x, y, ratio, verdict))
        for metric in EXACT:
            x, y = a["per_layer"][metric], b["per_layer"][metric]
            verdict = "ok" if x == y else "DISAGREE"
            all_ok &= verdict == "ok"
            rows.append((name, metric, x, y, None, verdict + " (exact)"))
    return rows, all_ok


def _shown(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def render_agree(rows: list) -> str:
    lines = [f"{'workload':<18} {'metric':<24} {'first':>14} {'second':>14} "
             f"{'second/first':>13}  verdict"]
    for name, metric, x, y, ratio, verdict in rows:
        lines.append(f"{name:<18} {metric:<24} {_shown(x):>14} {_shown(y):>14} "
                     f"{_shown(ratio):>13}  {verdict}")
    return "\n".join(lines)
