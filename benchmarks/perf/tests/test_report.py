"""The documents: contract line, result schema, `agree`, BENCHMARK.json's limits."""

import copy
import json
import re

import pytest

from benchmarks.perf import report
from benchmarks.perf.env import HarnessError
from benchmarks.perf.workloads import ABSENT, NAMES

BENCHMARK = report.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _legs(scale=1.0, wobble=0.0):
    """Synthetic ``([untraced leg per pass], traced leg)`` per workload; pass
    ``i`` of 5 is ``1 + i * wobble`` times slower than the first."""
    out = {}
    for name in NAMES:
        passes = []
        for index in range(5):
            slow = scale * (1.0 + index * wobble)
            passes.append({
                "workload": name, "traced": False, "unarmed": False, "attempted": 21,
                "failed": 0, "failures": [], "answers": "pinned", "reference": {"n": 1},
                "queries": 20, "latencies_s": [slow * 1.02] * 20,
                "setup_samples_s": [0.5, 0.51, 0.52], "sim_s": 0.01, "query_p95_s": None,
                "host": {},
                "metrics": {"setup_s": 0.51, "query_p50_s": slow * 1.02,
                            "throughput_qps": 0.98 / slow, "user_cpu_s_per_query": slow,
                            "peak_rss_mb": 800.0},
            })
        measured = {spec["name"]: 1.0 for spec in BENCHMARK["per_layer"]
                    if not spec["name"].startswith(ABSENT[name])}
        measured.update({"gpusim.sim_s": 0.01, "gpusim.page_faults": 975.0})
        traced = {"workload": name, "traced": True, "unarmed": False, "attempted": 9,
                  "failed": 0, "failures": [], "queries": 3, "trace": {"spans": 10},
                  "metrics": measured}
        out[name] = (passes, traced)
    return out


def _result(**kwargs):
    return report.build_result(0, 15.0, False, {"nproc": 2, "git_rev": "x"},
                               _legs(**kwargs), BENCHMARK)


def test_benchmark_json_meets_the_contract_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]] + list(NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16 and 1 <= len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
        assert UNIT.match(metric["unit"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for part in BENCHMARK["command"]:
        assert not part.startswith("/") and ".." not in part


def test_contract_line_has_exactly_the_declared_metrics():
    (untraced, *__), traced = _legs()["sm_q3_sl5"]
    line = report.contract_line(untraced, BENCHMARK)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert line["correct"] is True and line["attempted"] == 21
    assert line["metrics"]["query_p50_s"] == {"value": 1.02, "unit": "s"}
    line = report.contract_line(traced, BENCHMARK)
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    # Declared not on this workload: zero, never absent.
    assert line["metrics"]["serve.exec_s"] == {"value": 0.0, "unit": "s"}
    json.dumps(line)
    untraced["failed"] = 1
    assert report.contract_line(untraced, BENCHMARK)["correct"] is False


def test_only_declared_absent_metrics_are_zero_filled():
    __, traced = _legs()["fpm_cl"]
    del traced["metrics"]["core.sort_s"]  # a wrapper renamed, a side measurement not run
    with pytest.raises(HarnessError, match="core.sort_s was not measured"):
        report.contract_line(traced, BENCHMARK)
    __, traced = _legs()["fpm_cl"]
    traced["metrics"]["serve.exec_s"] = 0.04
    with pytest.raises(HarnessError, match="declared absent"):
        report.contract_line(traced, BENCHMARK)
    for name, absent in ABSENT.items():
        listed = [spec["name"] for spec in BENCHMARK["per_layer"]]
        assert all(any(metric.startswith(entry) for metric in listed) for entry in absent), name


def test_result_document_validates_and_names_every_metric():
    result = _result(wobble=0.1)
    assert report.validate(result, BENCHMARK) == []
    entry = result["workloads"]["fpm_cl"]
    # The median of the passes, and what the workload has no measurement for.
    assert entry["end_to_end"]["query_p50_s"] == pytest.approx(1.2 * 1.02)
    assert entry["not_on_this_workload"] == sorted(
        m for m in entry["per_layer"] if m.startswith(ABSENT["fpm_cl"]))
    text = report.render(result, BENCHMARK)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["name"] in text
    assert "query_p95_s" in text and "failed_frac" in text
    broken = copy.deepcopy(result)
    del broken["workloads"]["fpm_cl"]["per_layer"]["core.sort_s"]
    broken["workloads"]["sm_q3_sl5"]["end_to_end"]["query_p50_s"] = float("nan")
    problems = report.validate(broken, BENCHMARK)
    assert len(problems) == 2 and "core.sort_s" in problems[1]


def test_unarmed_workload_has_nulls_never_numbers():
    legs = _legs()
    unarmed = {"unarmed": True, "unarmed_reason": "needs 2 cores"}
    legs["shard2_kcl4_cl8"] = ([unarmed] * 5, unarmed)
    result = report.build_result(0, 15.0, False, {"nproc": 1, "git_rev": "x"}, legs, BENCHMARK)
    entry = result["workloads"]["shard2_kcl4_cl8"]
    assert entry["unarmed"] and all(v is None for v in entry["end_to_end"].values())
    assert all(v is None for v in entry["per_layer"].values())
    assert report.validate(result, BENCHMARK) == []
    rows, ok = report.agree(result, result, BENCHMARK)
    assert not ok and any(row[5] == "unarmed" for row in rows)


def test_agree_applies_bounds_spread_and_exactness():
    first = _result()
    rows, ok = report.agree(first, _result(scale=1.05), BENCHMARK)
    assert ok and all(row[5].startswith(("ok", "n/a")) for row in rows)

    rows, ok = report.agree(first, _result(scale=1.5), BENCHMARK)
    verdicts = {(row[0], row[1]): row[5] for row in rows}
    assert not ok and verdicts[("fpm_cl", "query_p50_s")] == "DISAGREE"
    assert verdicts[("fpm_cl", "peak_rss_mb")] == "ok"
    ratio = next(row[4] for row in rows if row[:2] == ("fpm_cl", "query_p50_s"))
    assert ratio == pytest.approx(1.5)

    # A launch whose own passes spread by more than the bound cannot resolve anything.
    rows, ok = report.agree(first, _result(scale=0.8, wobble=0.2), BENCHMARK)
    assert not ok
    assert {row[5] for row in rows if row[1] == "query_p50_s"} == {"unresolved"}
    assert {row[5] for row in rows if row[1] == "peak_rss_mb"} == {"ok"}

    moved = copy.deepcopy(first)
    moved["workloads"]["sm_q3_sl5"]["per_layer"]["gpusim.page_faults"] += 1
    rows, ok = report.agree(first, moved, BENCHMARK)
    assert not ok and [row[5] for row in rows if row[:2] == (
        "sm_q3_sl5", "gpusim.page_faults")] == ["DISAGREE (exact)"]

    failed = copy.deepcopy(first)
    failed["workloads"]["fpm_cl"]["end_to_end"]["failed_frac"] = 0.01
    assert not report.agree(first, failed, BENCHMARK)[1]

    smoke = copy.deepcopy(first)
    smoke["smoke"] = True
    with pytest.raises(ValueError):
        report.agree(first, smoke, BENCHMARK)
