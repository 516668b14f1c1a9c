"""Command line of the benchmark.

``python -m benchmarks.perf run [--seed S] [--out PATH] [--smoke]``
    all four workloads, untraced then traced, one result document;
``python -m benchmarks.perf agree A.json B.json``
    do two result documents of one commit agree within the bounds?
``python -m benchmarks.perf record-answers``
    re-pin answers.json at this commit;
``python3 benchmarks/perf/leg.py --workload W --seed S --seconds T --trace 0|1``
    one leg, in the form the ``BENCHMARK.json`` contract drives.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.perf import legs, report
from benchmarks.perf.env import ROOT, WORK, HarnessError, child_env, host_facts
from benchmarks.perf.workloads import (ANSWERS_PATH, BATCH, NAMES, PINNED_SEEDS,
                                       SERVE_CLI_ARGS, SERVE_MIX, SERVE_NAME, digest, graph_cl,
                                       parse_serve_cli, serve_answer)

#: A full ``run`` makes the contract's untraced leg this many times per
#: workload, a pass over all four at a time, and reports each end-to-end
#: metric's median.  This VM has slow spells of up to four minutes (+30-40 %
#: on every timing); a pass takes two, so a spell costs two passes of five,
#: not the number.  (A smoke run makes one pass.)
PASSES = 5


def cmd_leg(args) -> int:
    benchmark = report.load_benchmark()
    leg = legs.run_leg(args.workload, args.seed, args.seconds, bool(args.trace))
    legs.remove_workdir(leg)
    if leg["unarmed"]:
        print(f"{args.workload}: unarmed ({leg['unarmed_reason']}); "
              "no number is better than a wrong one", file=sys.stderr)
        return 2
    for failure in leg["failures"]:
        print(f"FAILED: {json.dumps(failure, sort_keys=True)}")
    line = report.contract_line(leg, benchmark)
    for name, metric in line["metrics"].items():
        print(f"{name:<38} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


def cmd_run(args) -> int:
    benchmark = report.load_benchmark()
    # The contract's run length, so `run` and the contract measure the same legs.
    seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])
    out = Path(args.out)

    def leg(name, traced):
        start = time.perf_counter()
        doc = legs.run_leg(name, args.seed, seconds, traced, smoke=args.smoke)
        print(f"[{name}] {'traced' if traced else 'untraced'} leg: "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
        return doc

    passes: dict = {name: [] for name in NAMES}
    for __ in range(1 if args.smoke else PASSES):
        for name in NAMES:
            doc = leg(name, traced=False)
            legs.remove_workdir(doc)
            passes[name].append(doc)
    done = {}
    with open(f"{out}.spans.jsonl", "w", encoding="utf-8") as spans:
        for name in NAMES:
            doc = leg(name, traced=True)
            try:
                if not doc["unarmed"]:
                    with open(doc["spans_file"], encoding="utf-8") as handle:
                        shutil.copyfileobj(handle, spans)
            finally:
                legs.remove_workdir(doc)
            done[name] = (passes[name], doc)
    result = report.build_result(args.seed, seconds, args.smoke, host_facts(), done, benchmark)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(report.render(result, benchmark))
    print(f"\nresult document: {out}\nspans: {out}.spans.jsonl")
    problems = report.validate(result, benchmark)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    # A slow number is not an error; a document of the wrong shape is.
    return 1 if problems else 0


def cmd_agree(args) -> int:
    with open(args.first, encoding="utf-8") as a, open(args.second, encoding="utf-8") as b:
        first, second = json.load(a), json.load(b)
    rows, ok = report.agree(first, second, report.load_benchmark())
    print(report.render_agree(rows))
    print("AGREE" if ok else "DO NOT AGREE")
    return 0 if ok else 1


def cmd_record_answers(args) -> int:
    """Pin every workload's answer at seeds 0, 1, 2 and the cold-CLI outputs."""
    from repro.core.framework import Gamma
    from repro.serve import QuerySpec, result_payload, run_query

    seeds: dict = {}
    for seed in PINNED_SEEDS:
        entry = seeds[str(seed)] = {}
        for name, cls in BATCH.items():
            workload = cls()
            workload.executor = "serial"  # the answer does not depend on the backend
            workload.graph = workload.build_graph(seed)
            entry[name] = workload.query()["answer"]
            print(f"seed {seed} {name}: {entry[name]}", flush=True)
        graph = graph_cl(seed)
        entry[SERVE_NAME] = {}
        for key, params in SERVE_MIX.items():
            spec = QuerySpec.from_dict(dict(params, dataset="CL"))
            with Gamma(graph) as engine:
                payload = result_payload(spec, run_query(engine, spec))
            entry[SERVE_NAME][key] = serve_answer(key, payload)
        print(f"seed {seed} {SERVE_NAME}: {entry[SERVE_NAME]}", flush=True)

    WORK.mkdir(exist_ok=True)
    cli = {}
    commands = {name: (cls.cli_args, cls.parse_cli) for name, cls in BATCH.items()}
    commands[SERVE_NAME] = (SERVE_CLI_ARGS, parse_serve_cli)
    for name, (cli_args, parse) in commands.items():
        done = subprocess.run([sys.executable, "-m", "repro", *cli_args], cwd=ROOT,
                              env=child_env(WORK), capture_output=True, text=True, check=True)
        cli[name] = parse(done.stdout)
        print(f"cli {name}: {cli[name]}", flush=True)
    # The CLI runs the named stand-ins, which the seed-0 inputs must equal.
    zero = seeds["0"]
    assert cli["sm_q3_sl5"] == zero["sm_q3_sl5"], (cli, zero)
    assert cli["shard2_kcl4_cl8"] == zero["shard2_kcl4_cl8"], (cli, zero)
    assert cli[SERVE_NAME] == zero[SERVE_NAME]["sm1"], (cli, zero)
    doc = {"schema": "gamma-perf-answers/1", "recorded_at_rev": host_facts()["git_rev"],
           "seeds": seeds, "cli": cli, "digest": digest([seeds, cli])}
    with open(ANSWERS_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {ANSWERS_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="all workloads, one result document")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default="perf_result.json")
    run.add_argument("--smoke", action="store_true",
                     help="2 timed queries per workload (40 served); labelled smoke, "
                          "never comparable with a full run")
    run.set_defaults(fn=cmd_run)

    leg = sub.add_parser("leg", help="one leg, BENCHMARK.json contract form")
    leg.add_argument("--workload", required=True, choices=NAMES)
    leg.add_argument("--seed", type=int, required=True)
    leg.add_argument("--seconds", type=float, required=True)
    leg.add_argument("--trace", type=int, choices=(0, 1), required=True)
    leg.set_defaults(fn=cmd_leg)

    agree = sub.add_parser("agree", help="compare two result documents of one commit")
    agree.add_argument("first")
    agree.add_argument("second")
    agree.set_defaults(fn=cmd_agree)

    record = sub.add_parser("record-answers", help="re-pin answers.json")
    record.set_defaults(fn=cmd_record_answers)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
