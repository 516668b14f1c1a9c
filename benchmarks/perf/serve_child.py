"""The measured process of ``serve_short_cl``: the mining service itself.

Starts ``MiningService(Scheduler(ServeConfig(slots=2, executor="serial"),
graphs={"CL": g}), port=0)``, prints ``ready <url>``, then answers one-line
commands on stdin with one JSON line each (the load comes over HTTP from
legs.py, not from here):

* ``trace_on`` / ``trace_off`` — install / remove the span wrappers (the
  driver alternates traced and reference load, so several times a leg);
* ``report`` — per-layer metrics of the spans recorded so far, spans written
  to ``<out>/spans.jsonl``;
* ``direct N`` — each query of the mix run N times straight on an engine (the
  base of ``serve.sched_overhead_s``), and one of them with the checkpoint
  journal the scheduler always arms;
* end of input — close the service and exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from benchmarks.perf import stats, trace
from benchmarks.perf.workloads import (SERVE_MIX, SERVE_NAME, gpusim_counts, graph_cl,
                                       serve_answer)
from repro.core.framework import Gamma
from repro.serve import (MiningService, QuerySpec, Scheduler, ServeConfig, result_payload,
                         run_query)
from repro.serve.queue import QueryQueue

#: The query of the mix whose checkpoint-journal cost is measured (the slowest).
JOURNALED_KEY = "sm3"


def _install_query_roots(tracer: trace.Tracer) -> list:
    """Root span per served query, from public seams only: a scheduler worker
    runs one query between ``queue.acquire()`` returning it and the worker's
    next ``acquire()`` call."""
    original = QueryQueue.__dict__["acquire"]

    def acquire(queue, *args, **kwargs):
        if tracer.open_spans():
            tracer.end()
        state = original(queue, *args, **kwargs)
        # A worker that waited here through ``trace_off`` runs an untraced query.
        if state is not None and QueryQueue.__dict__["acquire"] is acquire:
            tracer.begin("serve.execute", trace.ROOT_METRIC, query_id=state.id)
        return state

    QueryQueue.acquire = acquire
    return [(QueryQueue, "acquire", original)]


def _direct(graph, count: int, workdir: Path) -> dict:
    """Each query of the mix straight on an engine, ``count`` times after one
    untimed run (this thread's allocator arena starts cold)."""
    out: dict = {"direct_s": {}, "answers": {}, "sim_s": {}, "counters": {}}
    journal = workdir / "direct-journal"
    for key, params in SERVE_MIX.items():
        spec = QuerySpec.from_dict(dict(params, dataset="CL"))
        plain, journaled = [], []
        for __ in range(count + 1):
            start = time.perf_counter()
            with Gamma(graph) as engine:
                result = run_query(engine, spec)
                out["sim_s"][key] = engine.simulated_seconds
                out["counters"][key] = gpusim_counts(engine.platform.counters.snapshot())
            plain.append(time.perf_counter() - start)
            if key != JOURNALED_KEY:
                continue
            # What the scheduler adds to every query by journaling it, taken
            # turn about with the plain runs so both see the same host.
            shutil.rmtree(journal, ignore_errors=True)
            start = time.perf_counter()
            with Gamma(graph) as engine:
                engine.run(lambda eng: run_query(eng, spec), checkpoint_dir=str(journal))
            journaled.append(time.perf_counter() - start)
        out["direct_s"][key] = stats.median(plain[1:])
        out["answers"][key] = serve_answer(key, result_payload(spec, result))
        if journaled:
            out["checkpoint_overhead_frac"] = (
                stats.median(journaled[1:]) / out["direct_s"][key] - 1.0)
            out["journal_bytes"] = sum(
                f.stat().st_size for f in journal.rglob("*") if f.is_file())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="work directory of this leg")
    args = parser.parse_args(argv)
    workdir = Path(args.out)

    start = time.perf_counter()
    graph = graph_cl(args.seed)
    graph_build_s = time.perf_counter() - start
    config = ServeConfig(slots=2, executor="serial", workdir=str(workdir / "scheduler"))
    scheduler = Scheduler(config, graphs={"CL": graph})
    service = MiningService(scheduler, port=0).start()
    tracer = trace.Tracer()
    installed: list = []
    try:
        print(f"ready {service.url}", flush=True)
        for line in sys.stdin:
            command, *rest = line.split()
            if command == "trace_on":
                installed = trace.install(tracer) + _install_query_roots(tracer)
                reply = {"ok": True}
            elif command == "trace_off":
                # The replies are out, but a worker closes its query's root
                # span only when it comes back for the next one.
                deadline = time.perf_counter() + 5.0
                while tracer.busy():
                    if time.perf_counter() > deadline:
                        raise RuntimeError("a traced query is still open after 5 s")
                    time.sleep(0.001)
                trace.uninstall(installed)
                installed = []
                reply = {"ok": True}
            elif command == "report":
                spans = list(tracer.spans)
                roots = [span for span in spans if span[2] == trace.ROOT_METRIC]
                wall = sum(span[4] - span[3] for span in roots)
                trace.write_spans(spans, workdir / "spans.jsonl", SERVE_NAME)
                reply = {"queries": len(roots), "spans": len(spans),
                         "metrics": trace.layer_metrics(spans, max(1, len(roots)), wall)}
            elif command == "direct":
                reply = _direct(graph, int(rest[0]), workdir)
            elif command == "stats":
                events = scheduler.queue.trace
                reply = dict(scheduler.stats(), graph_build_s=graph_build_s,
                             max_inflight=max((sum(event["inflight"].values())
                                               for event in events), default=0))
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        trace.uninstall(installed)
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
