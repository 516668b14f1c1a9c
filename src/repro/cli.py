"""Command-line interface.

Run GPM workloads on any system, list the dataset stand-ins, or regenerate
a figure of the paper's evaluation:

    python -m repro datasets
    python -m repro systems
    python -m repro run --task sm --query 2 --dataset CL --system GAMMA
    python -m repro run --task kcl --k 4 --dataset CP --system Peregrine
    python -m repro run --task fpm --iterations 2 --min-support 50 --metric mni
    python -m repro figure fig12
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .algorithms import (
    count_kcliques,
    frequent_pattern_mining,
    graphlet_census,
    match_pattern,
    motif_count,
    triangle_count,
)
from .bench.figures import ALL_FIGURES
from .bench.reporting import format_table
from .bench.runner import SYSTEMS
from .errors import GammaError
from .graph import datasets, sm_query
from .graph.catalog import default_catalog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GAMMA (ICDE 2023) reproduction: graph pattern mining "
                    "on a simulated out-of-core GPU platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table II dataset stand-ins")
    sub.add_parser("systems", help="list the comparable systems")

    run = sub.add_parser("run", help="run one GPM task on one system")
    run.add_argument("--task", required=True,
                     choices=("sm", "kcl", "fpm", "triangles", "motifs", "graphlets"))
    run.add_argument("--dataset", default="CL",
                     help="Table II abbreviation (default CL)")
    run.add_argument("--system", default="GAMMA",
                     help=f"one of: {', '.join(SYSTEMS)}")
    run.add_argument("--query", type=int, default=1,
                     help="SM query number q1-q6 (default 1)")
    run.add_argument("--symmetry-breaking", action="store_true",
                     help="SM: enumerate each subgraph once")
    run.add_argument("--k", type=int, default=4, help="kCL clique size")
    run.add_argument("--iterations", type=int, default=2,
                     help="FPM: maximum pattern edges")
    run.add_argument("--min-support", type=int, default=10,
                     help="FPM: support threshold")
    run.add_argument("--metric", default="instances",
                     choices=("instances", "mni"), help="FPM support metric")
    run.add_argument("--edges", type=int, default=2, help="motifs: size")
    run.add_argument("--plan", default="baseline", metavar="SPEC",
                     help="execution plan: 'baseline' (hand-tuned orders, "
                          "bit-identical to pre-planner runs), 'auto' "
                          "(cost-based planner), or a plan JSON file "
                          "(see docs/PLANNER.md)")
    run.add_argument("--plan-cache-dir", metavar="DIR",
                     help="persist compiled auto plans in DIR/plans.sqlite "
                          "and reuse them across runs")
    run.add_argument("--breakdown", action="store_true",
                     help="print the simulated-time breakdown")
    run.add_argument("--profile", action="store_true",
                     help="print per-phase wall-clock time alongside the "
                          "simulated-time breakdown")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write a Chrome trace-event JSON of the run "
                          "(open in Perfetto / chrome://tracing)")
    run.add_argument("--metrics-out", metavar="PATH",
                     help="write the metric samples as JSON lines")
    run.add_argument("--manifest-out", metavar="PATH",
                     help="write a run manifest (diff with `repro report`)")
    run.add_argument("--critical-path", action="store_true",
                     help="print the simulated-time critical path and the "
                          "hot span subtrees after the run "
                          "(docs/OBSERVABILITY.md)")
    run.add_argument("--checkpoint-dir", metavar="DIR",
                     help="GAMMA: write a level-granular checkpoint after "
                          "every completed op (see docs/RESILIENCE.md)")
    run.add_argument("--resume", action="store_true",
                     help="GAMMA: resume from --checkpoint-dir's checkpoint "
                          "instead of starting over")
    run.add_argument("--fault-plan", metavar="NAME_OR_PATH",
                     help="install a deterministic fault-injection plan: a "
                          "built-in name (e.g. ci-default) or a JSON file")
    run.add_argument("--gpus", type=int, default=1, metavar="N",
                     help="GAMMA: shard the run across N simulated GPUs "
                          "(see docs/SHARDING.md)")
    run.add_argument("--shard-policy", default="static",
                     choices=("static", "degree", "stealing"),
                     help="frontier partitioning policy for --gpus > 1")
    run.add_argument("--executor", default=None,
                     choices=("serial", "process"),
                     help="shard execution backend for --gpus > 1: "
                          "'serial' runs shards in-process, 'process' "
                          "forks one worker per shard for true wall-clock "
                          "parallelism (default: $REPRO_SHARD_EXECUTOR or "
                          "serial; results are identical either way)")
    run.add_argument("--interconnect", default="nvlink",
                     choices=("nvlink", "pcie"),
                     help="inter-GPU link model for --gpus > 1 "
                          "(pcie stages through host memory)")
    run.add_argument("--degradation", metavar="POLICY",
                     choices=("halve-chunk", "demote-pages", "spill"),
                     help="GAMMA: degradation policy applied when the run "
                          "hits memory pressure")
    run.add_argument("--max-retries", type=int, default=8,
                     help="GAMMA: degradation retry budget (default 8)")

    figure = sub.add_parser("figure", help="regenerate one evaluation figure")
    figure.add_argument("name", choices=sorted(ALL_FIGURES),
                        help="figure/table key, e.g. fig12")

    plan = sub.add_parser(
        "plan", help="inspect compiled execution plans (docs/PLANNER.md)")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    explain = plan_sub.add_parser(
        "explain", help="compile a plan for one workload and print it")
    explain.add_argument("--task", required=True,
                         choices=("sm", "kcl", "fpm", "motifs"))
    explain.add_argument("--dataset", default="CL",
                         help="Table II abbreviation (default CL)")
    explain.add_argument("--query", type=int, default=1,
                         help="SM query number q1-q6 (default 1)")
    explain.add_argument("--symmetry-breaking", action="store_true",
                         help="SM: plan for once-per-subgraph enumeration")
    explain.add_argument("--k", type=int, default=4, help="kCL clique size")
    explain.add_argument("--iterations", type=int, default=2,
                         help="FPM: maximum pattern edges")
    explain.add_argument("--min-support", type=int, default=10,
                         help="FPM: support threshold")
    explain.add_argument("--metric", default="instances",
                         choices=("instances", "mni"),
                         help="FPM support metric")
    explain.add_argument("--edges", type=int, default=2, help="motifs: size")
    explain.add_argument("--plan", default="auto", metavar="SPEC",
                         help="'auto' (default), 'baseline', or a plan "
                              "JSON file")
    explain.add_argument("--plan-cache-dir", metavar="DIR",
                         help="plan cache directory to consult/populate")
    explain.add_argument("--out", metavar="PATH",
                         help="save the compiled plan as JSON (reusable "
                              "via `repro run --plan PATH`)")

    report = sub.add_parser(
        "report", help="summarize a run manifest, optionally diffing it "
                       "against a baseline manifest")
    report.add_argument("manifest", help="manifest JSON written by "
                                         "`repro run --manifest-out`")
    report.add_argument("--against", metavar="BASELINE",
                        help="baseline manifest; exit 1 on regressions, "
                             "2 on broken input")
    report.add_argument("--counter-threshold", type=float, default=0.10,
                        help="relative counter growth tolerated (default 0.10)")
    report.add_argument("--time-threshold", type=float, default=0.05,
                        help="relative simulated-time drift tolerated "
                             "(default 0.05)")

    serve = sub.add_parser(
        "serve", help="run the long-lived mining service (docs/SERVING.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port; 0 picks a free one (default 8750)")
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent execution slots (default 2)")
    serve.add_argument("--executor", choices=("serial", "process"),
                       metavar="NAME",
                       help="shard backend for multi-GPU queries "
                            "(default: process on >=4-core hosts; "
                            "REPRO_SHARD_EXECUTOR wins)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME[:INFLIGHT[:PENDING]]",
                       help="register a tenant with quota overrides "
                            "(repeatable)")
    serve.add_argument("--no-auto-tenants", action="store_true",
                       help="reject queries from unregistered tenants")
    serve.add_argument("--no-reuse-pools", action="store_true",
                       help="cold-start a worker pool per query instead of "
                            "resetting warm pools")
    serve.add_argument("--no-preemption", action="store_true",
                       help="never suspend running queries for "
                            "higher-priority arrivals")
    serve.add_argument("--workdir", metavar="DIR",
                       help="root for per-query checkpoints and the shared "
                            "plan cache (default: a temp dir)")
    serve.add_argument("--manifest-dir", metavar="DIR",
                       help="write per-query manifests and billing records "
                            "here")
    serve.add_argument("--preload", action="append", default=[],
                       metavar="DATASET",
                       help="load a dataset before serving (repeatable)")

    query = sub.add_parser(
        "query", help="submit one query to a running mining service")
    query.add_argument("--url", default="http://127.0.0.1:8750",
                       help="service base URL (default "
                            "http://127.0.0.1:8750)")
    query.add_argument("--task", required=True,
                       choices=("sm", "kcl", "fpm", "motifs"))
    query.add_argument("--dataset", default="CL",
                       help="Table II abbreviation (default CL)")
    query.add_argument("--tenant", default="default",
                       help="tenant to bill (default 'default')")
    query.add_argument("--priority", type=int, default=0,
                       help="admission priority; higher preempts lower")
    query.add_argument("--gpus", type=int, default=1,
                       help="simulated GPUs (default 1)")
    query.add_argument("--shard-policy", default="static",
                       choices=("static", "degree", "stealing"),
                       help="frontier partitioning policy for --gpus > 1")
    query.add_argument("--plan", default="baseline", metavar="SPEC",
                       help="'baseline' (default), 'auto', or a plan JSON "
                            "file")
    query.add_argument("--query", type=int, default=1, dest="sm_query",
                       help="SM query number q1-q6 (default 1)")
    query.add_argument("--symmetry-breaking", action="store_true",
                       help="SM: enumerate each subgraph once")
    query.add_argument("--k", type=int, default=4, help="kCL clique size")
    query.add_argument("--iterations", type=int, default=2,
                       help="FPM: maximum pattern edges")
    query.add_argument("--min-support", type=int, default=10,
                       help="FPM: support threshold")
    query.add_argument("--metric", default="instances",
                       choices=("instances", "mni"),
                       help="FPM support metric")
    query.add_argument("--edges", type=int, default=2, help="motifs: size")
    query.add_argument("--no-stream", action="store_true",
                       help="submit and poll instead of streaming partials")
    query.add_argument("--timeout", type=float, default=300.0,
                       help="client timeout in seconds (default 300)")
    return parser


def _cmd_datasets() -> int:
    print(format_table(datasets.table2_rows()))
    return 0


def _cmd_systems() -> int:
    for name, factory in SYSTEMS.items():
        doc = (factory.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:14s} {summary}")
    return 0


#: Tasks the query planner knows how to compile plans for.
_PLANNABLE_TASKS = ("sm", "kcl", "fpm", "motifs")


def _open_plan_cache(cache_dir):
    """Open the persistent plan cache under ``cache_dir`` (or None)."""
    if not cache_dir:
        return None
    import pathlib

    from .plan import PlanCache

    return PlanCache(pathlib.Path(cache_dir) / "plans.sqlite")


def _resolve_cli_plan(args: argparse.Namespace, engine, cache):
    """Map run/explain CLI arguments onto :func:`repro.plan.resolve_plan`."""
    from .plan import resolve_plan

    if args.task == "sm":
        return resolve_plan(
            engine, "sm", pattern=sm_query(args.query), plan=args.plan,
            cache=cache, symmetry_breaking=args.symmetry_breaking)
    if args.task == "kcl":
        return resolve_plan(engine, "kclique", plan=args.plan, cache=cache,
                            k=args.k)
    if args.task == "fpm":
        return resolve_plan(engine, "fpm", plan=args.plan, cache=cache,
                            iterations=args.iterations,
                            min_support=args.min_support,
                            support_metric=args.metric)
    return resolve_plan(engine, "motif", plan=args.plan, cache=cache,
                        num_edges=args.edges)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.system not in SYSTEMS:
        print(f"unknown system {args.system!r}; see `repro systems`",
              file=sys.stderr)
        return 2
    if args.task not in _PLANNABLE_TASKS and (
            args.plan != "baseline" or args.plan_cache_dir):
        print(f"--plan/--plan-cache-dir apply to "
              f"{'/'.join(_PLANNABLE_TASKS)} runs, not {args.task}",
              file=sys.stderr)
        return 2
    from .gpusim.trace import PhaseTimer

    timer = PhaseTimer()
    with timer.phase("load-dataset"):
        graph = datasets.load(args.dataset)
    print(f"{args.dataset}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges (stand-in; see DESIGN.md)")
    collector = None
    if (args.trace_out or args.metrics_out or args.manifest_out
            or args.critical_path):
        from . import obs

        # Install before the engine exists: the first GpuPlatform built
        # adopts the default collector, so the root span covers engine
        # construction (residence staging, pool allocation, ...).
        collector = obs.install(obs.SpanCollector())
    sharded = getattr(args, "gpus", 1) > 1
    if sharded and args.system != "GAMMA":
        print(f"--gpus needs the GAMMA engine, not {args.system}",
              file=sys.stderr)
        return 2
    with timer.phase("build-engine"):
        if sharded:
            from .gpusim.spec import InterconnectSpec
            from .shard import ShardedGamma

            engine = ShardedGamma(
                graph,
                num_shards=args.gpus,
                policy=args.shard_policy,
                interconnect=InterconnectSpec(kind=args.interconnect),
                executor=args.executor,
            )
        else:
            engine = SYSTEMS[args.system](graph)
    trace = None
    if args.breakdown or args.profile:
        from .gpusim.trace import TraceRecorder

        trace = TraceRecorder().attach(engine.platform)
        if sharded and engine.executor_name == "process":
            print("note: --breakdown/--profile trace the coordinator only "
                  "under --executor process (shard platforms live in "
                  "worker processes)", file=sys.stderr)
    if args.fault_plan:
        from .resilience import load_plan

        plan = load_plan(args.fault_plan)
        if sharded:
            # Shard 0, matching the old platform-level install.
            engine.install_fault_plan(plan)
        else:
            engine.platform.install_fault_plan(plan)
    plan_obj = None
    plan_cache = None
    try:
        if args.task in _PLANNABLE_TASKS:
            plan_cache = _open_plan_cache(args.plan_cache_dir)
            try:
                with timer.phase("plan"):
                    plan_obj = _resolve_cli_plan(args, engine, plan_cache)
            except (OSError, ValueError) as exc:
                print(f"bad --plan {args.plan!r}: {exc}", file=sys.stderr)
                return 2
        if args.task == "sm":
            task_fn = lambda eng: match_pattern(  # noqa: E731
                eng, sm_query(args.query),
                symmetry_breaking=args.symmetry_breaking,
                plan=plan_obj,
            )
        elif args.task == "kcl":
            task_fn = lambda eng: count_kcliques(  # noqa: E731
                eng, args.k, plan=plan_obj)
        elif args.task == "triangles":
            task_fn = triangle_count
        elif args.task == "fpm":
            task_fn = lambda eng: frequent_pattern_mining(  # noqa: E731
                eng, args.iterations, args.min_support,
                support_metric=args.metric, plan=plan_obj,
            )
        elif args.task == "motifs":
            task_fn = lambda eng: motif_count(  # noqa: E731
                eng, args.edges, plan=plan_obj)
        else:  # graphlets
            task_fn = lambda eng: graphlet_census(eng, args.k)  # noqa: E731

        resilient = bool(
            args.checkpoint_dir or args.resume or args.degradation
        )
        with timer.phase("run-task"):
            if resilient:
                if not hasattr(engine, "run"):
                    print(f"--checkpoint-dir/--resume/--degradation need "
                          f"a GAMMA engine, not {args.system}",
                          file=sys.stderr)
                    return 2
                result = engine.run(
                    task_fn,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                    policy=args.degradation,
                    max_retries=args.max_retries,
                )
            else:
                result = task_fn(engine)

        if args.task == "sm":
            print(f"query q{args.query}: {result.embeddings} embeddings, "
                  f"{result.unique_subgraphs} unique subgraphs")
        elif args.task == "kcl":
            print(f"{args.k}-cliques: {result.cliques}")
        elif args.task == "triangles":
            print(f"triangles: {result.triangles}")
        elif args.task == "fpm":
            catalog = default_catalog(graph.num_labels)
            print(f"frequent patterns (support >= {args.min_support}, "
                  f"{args.metric}):")
            for name, support in catalog.describe(result.patterns)[:20]:
                print(f"  {name:24s} {support}")
        elif args.task == "motifs":
            catalog = default_catalog(graph.num_labels)
            print(f"{args.edges}-edge motifs "
                  f"({result.total_instances} instances):")
            for name, support in catalog.describe(result.histogram)[:20]:
                print(f"  {name:24s} {support}")
        else:  # graphlets
            catalog = default_catalog(graph.num_labels)
            print(f"{args.k}-vertex graphlets "
                  f"({result.total} induced occurrences):")
            for name, support in catalog.describe(result.histogram)[:20]:
                print(f"  {name:24s} {support}")

        events = list(
            getattr(engine, "resilience_log", None)
            or getattr(engine.platform, "resilience_log", [])
        )
        if events:
            print(f"resilience events: {len(events)}")
            for event in events:
                kind = event.get("kind") or event.get("policy") or ""
                where = event.get("path") or event.get("error") or ""
                print(f"  {event['type']}:{kind} {where}")
        if plan_obj is not None and args.plan != "baseline":
            line = f"plan: {plan_obj.plan_id} [{plan_obj.source}]"
            if plan_obj.predicted_seconds:
                line += (f" predicted "
                         f"{plan_obj.predicted_seconds * 1e3:.3f} ms")
            print(line)
            if plan_cache is not None:
                stats = plan_cache.stats()
                print(f"plan cache: hits={stats['hits']} "
                      f"misses={stats['misses']} ({plan_cache.path})")
        print(f"simulated time: {engine.simulated_seconds * 1e3:.3f} ms; "
              f"peak memory: {engine.peak_memory_bytes / (1 << 20):.2f} MiB")
        if sharded:
            utils = ", ".join(
                f"gpu{i}={u:.1%}"
                for i, u in enumerate(engine.shard_utilization())
            )
            print(f"shards: {args.gpus} ({args.shard_policy}, "
                  f"{args.interconnect}); utilization: {utils}")
        if trace is not None and (args.breakdown or args.profile):
            print("\nwhere the time went:")
            print(trace.render())
        if args.profile:
            print("\nwall-clock profile:")
            print(timer.render())
        if collector is not None:
            _write_obs_outputs(args, engine, collector,
                               plan=plan_obj, plan_cache=plan_cache)
        return 0
    except GammaError as exc:
        print(f"CRASH: {type(exc).__name__}: {exc}")
        return 1
    finally:
        if plan_cache is not None:
            plan_cache.close()
        if collector is not None:
            collector.finish()  # idempotent; detaches on the crash path too
        engine.close()


def _plan_manifest_extra(engine, plan, plan_cache):
    """The manifest's ``plan`` block: identity plus predicted-vs-actual."""
    doc = {
        "id": plan.plan_id,
        "source": plan.source,
        "planner_version": plan.planner_version,
        "predicted_seconds": plan.predicted_seconds,
        "baseline_predicted_seconds": plan.baseline_predicted_seconds,
        "actual_seconds": engine.simulated_seconds,
    }
    if plan_cache is not None:
        doc["cache"] = plan_cache.stats()
    return {"plan": doc}


def _write_obs_outputs(args, engine, collector, plan=None,
                       plan_cache=None) -> None:
    """Close the telemetry collector and emit the requested artifacts."""
    from . import obs

    # Process-backend sharded runs graft the worker span trees under the
    # coordinator's root before the collector closes.
    finalize = getattr(engine, "finalize_telemetry", None)
    if finalize is not None:
        finalize()
    collector.finish()
    platform = getattr(engine, "platform", None)
    if args.trace_out:
        obs.write_chrome_trace(collector, args.trace_out)
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        obs.write_metrics_jsonl(collector, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.manifest_out:
        if platform is None:
            print("manifest not written: engine exposes no platform",
                  file=sys.stderr)
            return
        from .shard import ShardedGamma, build_sharded_manifest

        extra = (_plan_manifest_extra(engine, plan, plan_cache)
                 if plan is not None else None)
        if isinstance(engine, ShardedGamma):
            manifest = build_sharded_manifest(
                engine, collector,
                system=args.system, dataset=args.dataset, task=args.task,
                config=getattr(engine, "config", None),
                extra=extra,
            )
        else:
            manifest = obs.build_manifest(
                platform, collector,
                system=args.system, dataset=args.dataset, task=args.task,
                config=getattr(engine, "config", None),
                extra=extra,
            )
        obs.write_manifest(manifest, args.manifest_out)
        print(f"manifest written to {args.manifest_out}")
    if args.critical_path:
        from .obs.profile import render_critical_path

        print()
        print(render_critical_path(obs.span_tree_records(collector)))


def _cmd_plan_explain(args: argparse.Namespace) -> int:
    """Compile (or load) a plan without running it and print the choice."""
    import types

    graph = datasets.load(args.dataset)
    print(f"{args.dataset}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")
    # resolve_plan only consults the engine for its graph; skip building
    # the simulator for a planning-only command.
    engine = types.SimpleNamespace(graph=graph)
    plan_cache = _open_plan_cache(args.plan_cache_dir)
    try:
        try:
            plan_obj = _resolve_cli_plan(args, engine, plan_cache)
        except (OSError, ValueError) as exc:
            print(f"bad --plan {args.plan!r}: {exc}", file=sys.stderr)
            return 2
        print(plan_obj.describe())
        if plan_cache is not None:
            stats = plan_cache.stats()
            print(f"plan cache: hits={stats['hits']} "
                  f"misses={stats['misses']} "
                  f"persisted={stats['persisted']} ({plan_cache.path})")
        if args.out:
            plan_obj.save(args.out)
            print(f"plan written to {args.out} "
                  f"(run it: repro run --task {args.task} "
                  f"--dataset {args.dataset} --plan {args.out})")
        return 0
    finally:
        if plan_cache is not None:
            plan_cache.close()


def _read_manifest(path: str):
    """The run manifest at ``path``, or ``None`` after one stderr line."""
    from . import obs

    try:
        return obs.load_manifest(path)
    except (OSError, ValueError) as exc:
        print(f"{path}: {getattr(exc, 'strerror', None) or exc}",
              file=sys.stderr)
        return None


def _run_label(manifest) -> str:
    return "/".join(str(manifest.get(key))
                    for key in ("system", "dataset", "task"))


def _cmd_report(args: argparse.Namespace) -> int:
    """Summarise a manifest; with ``--against``, gate it on a baseline.

    Exit codes: 0 clean, 1 a regression beyond the thresholds, 2 broken
    input -- a file that is missing, not JSON or not a run manifest, or
    two manifests of different runs -- which is not the same as slower.
    """
    from . import obs

    manifest = _read_manifest(args.manifest)
    if manifest is None:
        return 2
    if args.against:
        baseline = _read_manifest(args.against)
        if baseline is None:
            return 2
        if _run_label(baseline) != _run_label(manifest):
            print(f"{args.against} records {_run_label(baseline)}, "
                  f"{args.manifest} records {_run_label(manifest)}: "
                  f"not comparable", file=sys.stderr)
            return 2
    print(f"system={manifest.get('system')} "
          f"dataset={manifest.get('dataset')} "
          f"task={manifest.get('task')} "
          f"git={manifest.get('git_rev')}")
    sim = manifest.get("simulated_seconds")
    if sim is not None:
        print(f"simulated time: {sim * 1e3:.3f} ms")
    buckets = manifest.get("clock_buckets") or {}
    if buckets:
        total = math.fsum(buckets.values()) or 1.0
        rows = [(name, seconds, seconds / total)
                for name, seconds in sorted(
                    buckets.items(), key=lambda kv: -kv[1])]
        print("\nsimulated-time buckets:")
        print(obs.render_bars(rows))
    counters = manifest.get("counters") or {}
    if counters:
        print("\ncounters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name.ljust(width)}  {counters[name]}")
    metrics = manifest.get("metrics") or {}
    if metrics:
        print("\nmetrics:")
        width = max(len(name) for name in metrics)
        for name in sorted(metrics):
            stats = metrics[name]
            print(f"  {name.ljust(width)}  n={stats['count']} "
                  f"sum={stats['sum']:g} last={stats['last']:g}")
    if args.against:
        findings = obs.diff_manifests(
            baseline, manifest,
            counter_threshold=args.counter_threshold,
            time_threshold=args.time_threshold,
        )
        print(f"\ndiff against {args.against}:")
        print(obs.format_findings(findings))
        if any(f.get("regression") for f in findings):
            return 1
    return 0


def _cmd_figure(name: str) -> int:
    report = ALL_FIGURES[name]()
    print(report.render())
    diverged = any(c.startswith("[DIVERGES") for c in report.checks)
    return 1 if diverged else 0


def _parse_tenant_flag(flag: str) -> tuple:
    """``NAME[:INFLIGHT[:PENDING]]`` -> (name, max_inflight, max_pending)."""
    parts = flag.split(":")
    name = parts[0]
    if not name:
        raise GammaError(f"bad --tenant spec {flag!r}")
    try:
        inflight = int(parts[1]) if len(parts) > 1 and parts[1] else None
        pending = int(parts[2]) if len(parts) > 2 and parts[2] else None
    except ValueError:
        raise GammaError(f"bad --tenant spec {flag!r}")
    return name, inflight, pending


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import MiningService, Scheduler, ServeConfig

    config = ServeConfig(
        slots=args.slots,
        executor=args.executor,
        reuse_pools=not args.no_reuse_pools,
        preemption=not args.no_preemption,
        workdir=args.workdir,
        manifest_dir=args.manifest_dir,
        auto_register=not args.no_auto_tenants,
    )
    scheduler = Scheduler(config)
    for flag in args.tenant:
        name, inflight, pending = _parse_tenant_flag(flag)
        scheduler.queue.register_tenant(name, max_inflight=inflight,
                                        max_pending=pending)
    for abbrev in args.preload:
        scheduler._graph(abbrev)
    service = MiningService(scheduler, host=args.host, port=args.port)
    host, port = service.address
    print(f"gamma mining service on http://{host}:{port} "
          f"({args.slots} slots; POST /v1/shutdown or Ctrl-C to stop)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        service.close()
    return 0


def _abridge(doc, max_items: int = 6):
    """Compact large dict fields (motif/FPM histograms) for terminal
    output; the full payload is always available over the API."""
    if isinstance(doc, dict):
        if len(doc) > max_items:
            head = dict(sorted(doc.items())[:max_items])
            return {**{k: _abridge(v) for k, v in head.items()},
                    "...": f"{len(doc) - max_items} more"}
        return {k: _abridge(v) for k, v in doc.items()}
    return doc


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    spec = {
        "family": args.task,
        "tenant": args.tenant,
        "priority": args.priority,
        "dataset": args.dataset,
        "gpus": args.gpus,
        "shard_policy": args.shard_policy,
        "plan": args.plan,
        "k": args.k,
        "query": args.sm_query,
        "symmetry_breaking": args.symmetry_breaking,
        "num_edges": args.edges,
        "iterations": args.iterations,
        "min_support": args.min_support,
        "support_metric": args.metric,
    }
    client = ServeClient(args.url, timeout=args.timeout)
    if args.no_stream:
        import time as _time
        submitted = client.submit_nowait(spec)
        query_id = submitted["query"]
        print(f"query {query_id} queued")
        deadline = _time.monotonic() + args.timeout
        while _time.monotonic() < deadline:
            doc = client.query(query_id)
            if doc["status"] in ("completed", "failed"):
                break
            _time.sleep(0.1)
        else:
            print("timed out waiting for the query", file=sys.stderr)
            return 1
    else:
        doc = client.run(spec)
        for record in doc["records"]:
            kind = record["type"]
            if kind == "partial":
                detail = {key: value for key, value in record.items()
                          if key not in ("seq", "query", "type", "n")}
                print(f"  level {record.get('level')}: "
                      f"{_abridge(detail)}")
            elif kind in ("preempted", "resumed", "crash"):
                print(f"  [{kind}]")
    if doc["status"] == "completed":
        print(f"query {doc['query']} completed: "
              f"{_abridge(doc['result'])}")
        billing = doc.get("billing") or {}
        print(f"billed: {billing.get('simulated_seconds')} simulated "
              f"seconds, latency {billing.get('latency_seconds'):.3f}s, "
              f"{billing.get('preemptions')} preemptions")
        return 0
    print(f"query {doc['query']} failed: {doc.get('error')}",
          file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "systems":
            return _cmd_systems()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plan":
            return _cmd_plan_explain(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "query":
            return _cmd_query(args)
        return _cmd_figure(args.name)
    except BrokenPipeError:  # output piped into head/less and closed early
        return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
