"""The measured process of a batch workload (launched by legs.py, pinned env).

Builds the workload's graph and whatever it keeps warm, prints ``ready``, runs
the workload's untimed warm-up queries, then either the untraced leg (closed
loop, one client, until the time budget is spent) or the traced leg (rounds of
the same query plain, under the span wrappers and under each side
measurement).  Every answer is compared with the reference; simulated seconds
and counters must repeat exactly.  The result goes to ``<out>/child.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from benchmarks.perf import stats, trace
from benchmarks.perf.env import proc_usage, usage_delta
from benchmarks.perf.workloads import BATCH, MIN_QUERIES, gpusim_counts, pinned_answer


class Checker:
    """Compares every answer with the reference and counts what differs."""

    def __init__(self, workload, seed: int) -> None:
        self.collect_garbage = workload.collect_garbage
        self.reference = pinned_answer(workload.name, seed)
        self.answers = "pinned" if self.reference is not None else "self-consistent"
        self.sim_s = None
        self.counters = None
        self.attempted = 0
        self.failures: list = []

    def fail(self, what: str, **detail) -> None:
        self.failures.append({"what": what, **detail})

    def check(self, out: dict, where: str, sim_comparable: bool = True) -> None:
        """``sim_comparable=False`` for queries whose simulated cost
        legitimately differs (another plan, checkpoint journaling)."""
        self.attempted += 1
        if self.reference is None:
            self.reference = out["answer"]
        if sim_comparable and self.sim_s is None:
            self.sim_s = out["sim_s"]
        if sim_comparable and self.counters is None:
            self.counters = out.get("counters")
        if out["answer"] != self.reference:
            self.fail("wrong-answer", where=where, got=out["answer"], want=self.reference)
        elif sim_comparable and out["sim_s"] != self.sim_s:
            self.fail("sim-seconds-differ", where=where, got=out["sim_s"], want=self.sim_s)
        elif sim_comparable and "counters" in out and out["counters"] != self.counters:
            self.fail("counters-differ", where=where)


def timed_query(query, checker, where, sim_comparable=True) -> float:
    """One request -> verified answer; returns its wall seconds.  The program's
    garbage is collected once the clock has stopped (see
    ``BatchWorkload.collect_garbage`` for why)."""
    start = time.perf_counter()
    try:
        checker.check(query(), where, sim_comparable)
    except Exception as exc:  # a failed query is a counted failure, not a crash
        checker.attempted += 1
        checker.fail("exception", where=where, error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    checker.collect_garbage()
    return elapsed


def run_queries(query, checker, where, seconds) -> list:
    """Closed loop, one client: query after query until ``seconds`` are spent
    and ``MIN_QUERIES`` have run.  Returns per-query wall seconds."""
    latencies = []
    deadline = time.perf_counter() + seconds
    while len(latencies) < MIN_QUERIES or time.perf_counter() < deadline:
        latencies.append(timed_query(query, checker, where))
    return latencies


def measured_pids(workload) -> list:
    """The program: this process plus the shard pool's live workers, if any."""
    return [os.getpid()] + list(getattr(workload.executor, "pids", None) or [])


def untraced_leg(workload, checker, seconds) -> dict:
    before = proc_usage(measured_pids(workload))
    start = time.perf_counter()
    latencies = run_queries(workload.query, checker, "timed", seconds)
    wall = time.perf_counter() - start
    after = proc_usage(measured_pids(workload))
    used = usage_delta(after, before)
    count = len(latencies)
    return {
        "queries": count,
        "latencies_s": latencies,
        "window_s": wall,
        "query_p50_s": stats.median(latencies),
        "query_p95_s": stats.tail_percentile(latencies, 95.0),
        "throughput_qps": count / wall,
        "user_cpu_s_per_query": used["user_s"] / count,
        "sys_cpu_s_per_query": used["sys_s"] / count,
        "minor_faults_per_query": used["minflt"] / count,
        "peak_rss_mb": after["hwm_mb"],
    }


# -- the traced leg -----------------------------------------------------------------------
def _under_wrappers(workload, tracer, where):
    """The query with the span wrappers in, inside a harness root span."""
    query_ids = iter(range(10**9))

    def query():
        installed = trace.install(tracer)
        tracer.begin("query", trace.ROOT_METRIC, query_id=f"{where}-{next(query_ids)}")
        try:
            return workload.query(with_counters=True)
        finally:
            tracer.end()
            trace.uninstall(installed)

    return query


def _with_collector(workload, state: dict):
    """The query with the library's own SpanCollector installed."""
    from repro import obs

    def query():
        collector = obs.install(obs.SpanCollector())

        def after(engine):
            getattr(engine, "finalize_telemetry", lambda: None)()
            collector.finish()
            start = time.perf_counter()
            obs.build_manifest(engine.platform, collector, system="GAMMA",
                               dataset=workload.graph.name, task=workload.name)
            state["manifest_s"].append(time.perf_counter() - start)
            state["spans"].append(len(collector.spans))

        try:
            return workload.query(after=after)
        finally:
            obs.uninstall(collector)

    return query


def _plan_side(workload, checker, workdir) -> dict:
    """``plan="auto"`` once cold and once from the cache, then one query on it."""
    from repro.plan import PlanCache, resolve_plan

    engine = workload.make_engine()
    try:
        with PlanCache(Path(workdir) / "plans.sqlite") as cache:
            timings = []
            for __ in range(2):
                start = time.perf_counter()
                plan = resolve_plan(engine, workload.plan_task, plan="auto", cache=cache,
                                    **workload.plan_kwargs())
                timings.append(time.perf_counter() - start)
    finally:
        engine.close()
    out = workload.query(plan=plan)
    checker.check(out, "planned", sim_comparable=False)
    return {
        "plan.resolve_cold_s": timings[0],
        "plan.resolve_warm_s": timings[1],
        "plan.pred_over_actual_sim": plan.predicted_seconds / out["sim_s"],
    }


def traced_leg(workload, checker, seconds, workdir, spans_path) -> dict:
    """Rounds of the same query taken turn about: plain (the reference), under
    the span wrappers, with the library's collector, with the checkpoint
    journal armed.  Every ratio is against reference queries of the same
    rounds, so a host that speeds up or slows down during the leg does not
    read as overhead."""
    tracer = trace.Tracer()
    collector = {"manifest_s": [], "spans": []}
    journal = Path(workdir) / "journal"
    # name -> (query, simulated cost comparable with the plain query's)
    variants = {
        "reference": (workload.query, True),
        "traced": (_under_wrappers(workload, tracer, "traced"), True),
        "collector": (_with_collector(workload, collector), True),
    }
    if workload.checkpoint_side:
        variants["checkpoint"] = (
            lambda: workload.query(before=lambda e: e.enable_checkpointing(str(journal))),
            False)  # journaling is charged to the simulated clock
    latencies: dict = {name: [] for name in variants}
    workers = measured_pids(workload)[1:]
    before, workers_before = proc_usage(measured_pids(workload)), proc_usage(workers)
    deadline = time.perf_counter() + seconds
    while len(latencies["reference"]) < MIN_QUERIES or time.perf_counter() < deadline:
        for name, (query, sim_comparable) in variants.items():
            latencies[name].append(timed_query(query, checker, name, sim_comparable))
            if name == "checkpoint":
                # Every journaled query starts from an empty directory, as
                # the scheduler's per-query journals do.
                journal_bytes = sum(f.stat().st_size for f in journal.rglob("*")
                                    if f.is_file())
                shutil.rmtree(journal, ignore_errors=True)
    used = usage_delta(proc_usage(measured_pids(workload)), before)
    workers_used = usage_delta(proc_usage(workers), workers_before)
    p50 = {name: stats.median(values) for name, values in latencies.items()}
    queries = sum(map(len, latencies.values()))
    spans = list(tracer.spans)
    metrics = trace.layer_metrics(spans, len(latencies["traced"]), sum(latencies["traced"]))
    metrics.update({
        "trace.overhead_frac": p50["traced"] / p50["reference"] - 1.0,
        "host.minor_faults_per_query": used["minflt"] / queries,
        "obs.collector_overhead_frac": p50["collector"] / p50["reference"] - 1.0,
        "obs.spans_per_query": stats.median(collector["spans"]),
        "obs.manifest_build_s": stats.median(collector["manifest_s"]),
    })
    if workers:  # every variant runs on the pool
        metrics["shard.worker_user_cpu_s"] = workers_used["user_s"] / queries
    if workload.checkpoint_side:
        metrics["resilience.checkpoint_overhead_frac"] = \
            p50["checkpoint"] / p50["reference"] - 1.0
        metrics["resilience.journal_bytes"] = float(journal_bytes)

    if workload.serial_comparison:
        # The same query on the in-process executor: the ratio's base, and the
        # only place the engine layers inside a shard are visible to spans.
        # Both sides of the ratio are traced medians, so the wrappers cancel.
        pool = workload.executor
        workload.executor = "serial"
        tracer.spans = []
        try:
            checker.check(workload.query(), "serial-warm-up")
            serial = run_queries(_under_wrappers(workload, tracer, "serial"), checker,
                                 "serial", 0.0)
        finally:
            workload.executor = pool
        inside = trace.layer_metrics(tracer.spans, len(serial), sum(serial))
        for key, value in inside.items():
            if key.split(".")[0] in ("graph", "core", "gpusim", "algorithms"):
                metrics[key] = value
        metrics["shard.process_over_serial"] = stats.median(serial) / p50["traced"]
        spans += tracer.spans
    trace.write_spans(spans, spans_path, workload.name)

    metrics["gpusim.sim_s"] = checker.sim_s
    metrics["gpusim.wall_per_sim"] = p50["reference"] / checker.sim_s
    metrics.update(gpusim_counts(checker.counters))
    if workload.plan_task is not None:
        metrics.update(_plan_side(workload, checker, workdir))
    return {
        "queries": len(latencies["traced"]),
        "reference_queries": len(latencies["reference"]),
        "reference_query_p50_s": p50["reference"],
        "traced_query_p50_s": p50["traced"],
        "round_latencies_s": latencies,
        "spans": len(spans),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true", help="one warm-up query only")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="work directory of this leg")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after `ready` (set-up time samples)")
    args = parser.parse_args(argv)

    workload = BATCH[args.workload]()
    try:
        workload.setup(args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        checker = Checker(workload, args.seed)
        warmup = [timed_query(workload.query, checker, "warm-up")
                  for __ in range(1 if args.smoke else workload.warmup_queries)]
        doc = {
            "graph": {"name": workload.graph.name, "vertices": workload.graph.num_vertices,
                      "edges": workload.graph.num_edges},
            "graph_build_s": workload.graph_build_s,
            "pool_cold_start_s": workload.pool_cold_start_s,
            "warmup_query_s": warmup[0],
        }
        if args.trace:
            doc["traced"] = traced_leg(workload, checker, args.seconds, args.out,
                                       Path(args.out) / "spans.jsonl")
        else:
            doc["untraced"] = untraced_leg(workload, checker, args.seconds)
        doc.update(answers=checker.answers, reference=checker.reference,
                   sim_s=checker.sim_s, attempted=checker.attempted,
                   failures=checker.failures)
    finally:
        workload.close()
    with open(Path(args.out) / "child.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
