"""One leg = one workload, untraced or traced, measured from the driver process.

The driver launches the measured program as a child with the pinned
environment, times child spawn -> ``ready`` (``setup_s``; several spawns, the
median), and for ``serve_short_cl`` generates the closed-loop HTTP load
itself.  The traced leg also makes the cold-CLI launch.  A leg returns one
document; ``report.py`` turns documents into the printed and written forms.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.perf import stats
from benchmarks.perf.env import (ROOT, WORK, HarnessError, child_env, nproc, proc_usage,
                                 usage_delta)
from benchmarks.perf.workloads import (BATCH, MIN_QUERIES, SERVE_CLI_ARGS, SERVE_MIN_QUERIES,
                                       SERVE_MIX, SERVE_NAME, SERVE_TENANTS,
                                       SERVE_WARMUP_QUERIES, load_answers, parse_serve_cli,
                                       pinned_answer, serve_answer, serve_queries)
from repro.errors import AdmissionError
from repro.serve import ServeClient

#: No child may outlive this; the contract allows a run 180 s.
CHILD_TIMEOUT_S = 150.0
#: ``setup_s`` is the median of this many spawn -> ``ready`` timings (one in a
#: traced or smoke leg, which reports none).
SETUP_SAMPLES = 9
#: The traced serve leg alternates reference and traced load in phases of this
#: many seconds, so host drift during the leg does not read as overhead.
SERVE_PHASE_S = 1.5


class Child:
    """A measured child process; leaving the ``with`` block ends it for sure."""

    def __init__(self, module: str, args: list, workdir: Path, stdin=None) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *map(str, args)], cwd=ROOT,
            env=child_env(workdir), stdin=stdin, stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def read_line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise HarnessError(f"child ended early (exit code {self.proc.wait()})")
        return line.strip()

    def await_ready(self) -> "tuple[float, str]":
        """Seconds from spawn to the ``ready`` line, and the rest of that line."""
        while True:
            line = self.read_line()
            if line.startswith("ready"):
                return time.perf_counter() - self.spawned, line[len("ready"):].strip()

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.read_line())

    def finish(self) -> None:
        """Let the child run to its end (end of input is its cue to stop)."""
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0:
            raise HarnessError(f"child exited with code {code}")


def _setup_samples(module: str, args: list, workdir: Path, samples: int, stdin=None) -> list:
    """Extra spawn -> ready timings from children that stop right after.

    The first spawn is not kept: it reads the interpreter and NumPy back into
    the page cache after whatever ran before, which no later spawn pays.
    """
    out = []
    for __ in range(samples + 1 if samples else 0):
        with Child(module, args, workdir, stdin=stdin) as child:
            out.append(child.await_ready()[0])
            child.finish()
    return out[1:]


def cold_cli(cli_args, parse, expected, workdir: Path) -> dict:
    """``python -m repro ...`` once, as a user launches it: cold process, named
    stand-in (so always the seed-0 graph), glibc's default allocator.

    One launch only: on this VM a cold launch has taken from 3 to 45 s (36 s
    of them page faults), and a traced leg must end within the contract's 180.
    """
    env = child_env(workdir, pinned_allocator=False)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "repro", *cli_args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    user, system = after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime
    try:
        got = parse(done.stdout) if done.returncode == 0 else {"exit": done.returncode}
    except AttributeError:  # the answer line is missing
        got = {"unparsed": done.stdout[-200:]}
    failures = [] if got == expected else [
        {"what": "cli-wrong-answer", "got": got, "want": expected}]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=ROOT, env=env, check=True,
                   timeout=CHILD_TIMEOUT_S)
    import_s = time.perf_counter() - start
    return {
        "failures": failures,
        "metrics": {
            "cli.cold_wall_s": wall,
            "cli.cold_user_cpu_s": user,
            "cli.cold_sys_cpu_s": system,
            "cli.import_s": import_s,
            "host.sys_cpu_frac": system / (user + system),
        },
    }


def _leg_doc(workload, seed, traced, seconds) -> dict:
    return {"workload": workload, "seed": seed, "traced": bool(traced), "seconds": seconds,
            "unarmed": False, "attempted": 0, "failed": 0, "failures": [], "metrics": {}}


def _close(doc: dict, failures: list) -> dict:
    doc["failures"] = failures
    doc["failed"] = len(failures)
    return doc


# -- batch workloads --------------------------------------------------------------------------
def batch_leg(name, seed, seconds, traced, smoke, workdir: Path) -> dict:
    workload = BATCH[name]
    doc = _leg_doc(name, seed, traced, seconds)
    if nproc() < workload.min_cores:
        # Never a number: a speed-up bar measured without the cores is not a result.
        doc["unarmed"] = True
        doc["unarmed_reason"] = f"needs {workload.min_cores} cores, host has {nproc()}"
        return doc
    args = ["--workload", name, "--seed", seed, "--seconds", seconds,
            "--trace", int(traced), "--out", workdir] + ["--smoke"] * smoke
    setups = _setup_samples("benchmarks.perf.child", args + ["--setup-only"], workdir,
                            0 if traced or smoke else SETUP_SAMPLES - 1)
    with Child("benchmarks.perf.child", args, workdir) as child:
        setups.append(child.await_ready()[0])
        child.finish()
    with open(workdir / "child.json", encoding="utf-8") as handle:
        result = json.load(handle)
    failures = list(result["failures"])
    doc.update(attempted=result["attempted"], answers=result["answers"],
               reference=result["reference"], graph=result["graph"],
               setup_samples_s=setups)
    if not traced:
        leg = result["untraced"]
        doc["queries"] = leg["queries"]
        doc["latencies_s"] = leg.pop("latencies_s")
        doc["metrics"] = {"setup_s": stats.median(setups), **{
            key: leg[key] for key in ("query_p50_s", "throughput_qps",
                                      "user_cpu_s_per_query", "peak_rss_mb")}}
        doc["query_p95_s"] = leg["query_p95_s"]
        doc["sim_s"] = result["sim_s"]
        doc["host"] = {"warmup_query_s": result["warmup_query_s"],
                       "sys_cpu_s_per_query": leg["sys_cpu_s_per_query"],
                       "minor_faults_per_query": leg["minor_faults_per_query"]}
        return _close(doc, failures)
    leg = result["traced"]
    cli = cold_cli(workload.cli_args, workload.parse_cli, load_answers()["cli"][name], workdir)
    doc["attempted"] += 1
    failures += cli["failures"]
    doc["queries"] = leg["queries"]
    doc["metrics"] = {
        **leg["metrics"], **cli["metrics"],
        "graph.build_s": result["graph_build_s"],
        "host.warmup_query_s": result["warmup_query_s"],
    }
    if result["pool_cold_start_s"] is not None:
        doc["metrics"]["shard.pool_cold_start_s"] = result["pool_cold_start_s"]
    doc["trace"] = {key: leg[key] for key in ("reference_queries", "reference_query_p50_s",
                                              "traced_query_p50_s", "round_latencies_s",
                                              "spans")}
    doc["spans_file"] = str(workdir / "spans.jsonl")
    return _close(doc, failures)


# -- the serving workload ------------------------------------------------------------------------
class _ServeLoad:
    """Closed loop: each tenant sends its next query when the last returned."""

    def __init__(self, url: str, seed: int, reference: "dict | None") -> None:
        self.url = url
        self.reference = reference
        self.sim_s: dict = {}
        # One long seeded order, dealt to the tenants in turn; a phase takes
        # the next stretch of it.
        order = serve_queries(seed, 3 * 8000)
        self._streams = [iter(order[index::SERVE_TENANTS]) for index in range(SERVE_TENANTS)]
        self.failures: list = []
        self.rejected = 0
        self.attempted = 0
        self._lock = threading.Lock()

    def _one(self, client, tenant: int, key: str, spec: dict) -> dict:
        start = time.perf_counter()
        record = {"key": key, "doc": None}
        try:
            record["doc"] = client.run(dict(spec, tenant=f"tenant-{tenant}"))
        except AdmissionError as exc:
            record["error"] = f"rejected: {exc}"
        except Exception as exc:  # timeouts, HTTP errors: counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency_s"] = time.perf_counter() - start
        return record

    def _verify(self, record: dict) -> None:
        self.attempted += 1
        key, doc = record["key"], record["doc"]
        if doc is None:
            self.rejected += record["error"].startswith("rejected")
            self.failures.append({"what": "request-failed", "key": key,
                                  "error": record["error"]})
            return
        if doc.get("status") != "completed":
            self.failures.append({"what": "query-failed", "key": key,
                                  "error": doc.get("error")})
            return
        answer = serve_answer(key, doc["result"])
        if self.reference is None:
            self.reference = {}
        want = self.reference.setdefault(key, answer)
        sim = self.sim_s.setdefault(key, doc["billing"]["simulated_seconds"])
        if answer != want:
            self.failures.append({"what": "wrong-answer", "key": key, "got": answer,
                                  "want": want})
        elif doc["billing"]["simulated_seconds"] != sim:
            self.failures.append({"what": "sim-seconds-differ", "key": key,
                                  "got": doc["billing"]["simulated_seconds"], "want": sim})

    def run(self, seconds: float, min_queries: int) -> "tuple[list, float]":
        """Both tenants until ``seconds`` are spent and ``min_queries`` are
        done; returns the records and the wall seconds to the last reply."""
        per_tenant = -(-min_queries // SERVE_TENANTS)
        records: list = [[] for __ in range(SERVE_TENANTS)]
        start = time.perf_counter()
        deadline = start + seconds

        def tenant_loop(tenant: int) -> None:
            client = ServeClient(self.url, timeout=60.0)
            mine = records[tenant]
            while len(mine) < per_tenant or time.perf_counter() < deadline:
                key, spec = next(self._streams[tenant])
                record = self._one(client, tenant, key, spec)
                # Verified inside the loop: a request is done when its
                # answer is known to be right.
                with self._lock:
                    self._verify(record)
                mine.append(record)

        threads = [threading.Thread(target=tenant_loop, args=(tenant,))
                   for tenant in range(SERVE_TENANTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return [record for mine in records for record in mine], wall


def _key_p50(records: list, key: str) -> float:
    return stats.median([r["latency_s"] for r in records if r["key"] == key])


def _billing_medians(records: list, direct_s: dict) -> dict:
    done = [r for r in records if r["doc"] is not None and r["doc"].get("billing")]
    if not done:
        return {}
    bills = [(r, r["doc"]["billing"]) for r in done]
    sizes = [len(json.dumps(r["doc"])) for r in done]
    return {
        "serve.http_overhead_s": stats.median(
            [r["latency_s"] - bill["latency_seconds"] for r, bill in bills]),
        "serve.queue_s": stats.median([bill["queue_seconds"] for __, bill in bills]),
        "serve.exec_s": stats.median([bill["exec_seconds"] for __, bill in bills]),
        "serve.sched_overhead_s": stats.median(
            [bill["exec_seconds"] - direct_s[r["key"]] for r, bill in bills]),
        "serve.bytes_per_response": stats.median(sizes),
    }


def serve_leg(seed, seconds, traced, smoke, workdir: Path) -> dict:
    doc = _leg_doc(SERVE_NAME, seed, traced, seconds)
    args = ["--seed", seed, "--out", workdir]
    module = "benchmarks.perf.serve_child"
    setups = _setup_samples(module, args, workdir,
                            0 if traced or smoke else SETUP_SAMPLES - 1,
                            stdin=subprocess.DEVNULL)
    with Child(module, args, workdir, stdin=subprocess.PIPE) as child:
        ready_s, url = child.await_ready()
        setups.append(ready_s)
        load = _ServeLoad(url, seed, pinned_answer(SERVE_NAME, seed))
        doc["answers"] = "pinned" if load.reference is not None else "self-consistent"
        warmup, __ = load.run(0.0, SERVE_MIN_QUERIES if smoke else SERVE_WARMUP_QUERIES)
        server = [child.proc.pid]
        before = proc_usage(server)
        if not traced:
            records, wall = load.run(seconds, SERVE_MIN_QUERIES)
            after = proc_usage(server)
            used = usage_delta(after, before)
            latencies = [r["latency_s"] for r in records]
            doc["metrics"] = {
                "setup_s": stats.median(setups),
                "query_p50_s": stats.median(latencies),
                "throughput_qps": len(records) / wall,
                "user_cpu_s_per_query": used["user_s"] / len(records),
                "peak_rss_mb": after["hwm_mb"],
            }
            doc["queries"] = len(records)
            doc["latencies_s"] = latencies
            doc["query_p95_s"] = stats.tail_percentile(latencies, 95.0)
            doc["sim_s"] = load.sim_s
            doc["host"] = {"warmup_query_s": warmup[0]["latency_s"],
                           "sys_cpu_s_per_query": used["sys_s"] / len(records),
                           "minor_faults_per_query": used["minflt"] / len(records)}
        else:
            reference, records = [], []
            phase = (min(SERVE_PHASE_S, seconds), SERVE_MIN_QUERIES // MIN_QUERIES)
            deadline = time.perf_counter() + seconds
            rounds = 0
            while rounds < MIN_QUERIES or time.perf_counter() < deadline:
                reference += load.run(*phase)[0]
                child.ask("trace_on")
                records += load.run(*phase)[0]
                child.ask("trace_off")
                rounds += 1
            used = usage_delta(proc_usage(server), before)
            report = child.ask("report")
            direct = child.ask("direct 3")
            server_stats = child.ask("stats")
            for key, answer in direct["answers"].items():
                load.attempted += 1
                want = (load.reference or {}).get(key)
                if answer != want:
                    load.failures.append({"what": "direct-wrong-answer", "key": key,
                                          "got": answer, "want": want})
            latencies = [r["latency_s"] for r in reference]
            reference_p50 = stats.median(latencies)
            traced_p50 = stats.median([r["latency_s"] for r in records])
            # Kind by kind: the median of a three-kind mix moves with how many
            # of each kind a phase happened to serve.
            overheads = [_key_p50(records, key) / _key_p50(reference, key) - 1.0
                         for key in SERVE_MIX]
            # The mix's simulated figures: one query of each kind.
            sim_s = sum(direct["sim_s"].values())
            counts: dict = {}
            for per_key in direct["counters"].values():
                for key, value in per_key.items():
                    counts[key] = counts.get(key, 0) + value
            doc["metrics"] = {
                **report["metrics"], **_billing_medians(reference, direct["direct_s"]), **counts,
                "graph.build_s": server_stats["graph_build_s"],
                "gpusim.sim_s": sim_s,
                "gpusim.wall_per_sim": len(SERVE_MIX) * reference_p50 / sim_s,
                "resilience.checkpoint_overhead_frac": direct["checkpoint_overhead_frac"],
                "resilience.journal_bytes": float(direct["journal_bytes"]),
                "serve.query_p95_s": stats.percentile(latencies, 95.0),
                "serve.rejected": float(load.rejected),
                "serve.preemptions": float(server_stats["preemptions"]),
                "serve.max_inflight": float(server_stats["max_inflight"]),
                "host.warmup_query_s": warmup[0]["latency_s"],
                "host.minor_faults_per_query":
                    used["minflt"] / (len(reference) + len(records)),
                "trace.overhead_frac": sum(overheads) / len(overheads),
            }
            doc["queries"] = report["queries"]
            doc["trace"] = {"reference_queries": len(reference),
                            "reference_query_p50_s": reference_p50,
                            "traced_query_p50_s": traced_p50, "spans": report["spans"],
                            "p95_samples_beyond": stats.samples_beyond(len(latencies), 95.0),
                            "direct_s": direct["direct_s"]}
            doc["spans_file"] = str(workdir / "spans.jsonl")
        child.finish()
    doc.update(attempted=load.attempted, reference=load.reference, setup_samples_s=setups)
    failures = load.failures
    if traced:
        cli = cold_cli(SERVE_CLI_ARGS, parse_serve_cli, load_answers()["cli"][SERVE_NAME],
                       workdir)
        doc["attempted"] += 1
        failures += cli["failures"]
        doc["metrics"].update(cli["metrics"])
    return _close(doc, failures)


def run_leg(workload: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """Measure one leg in a scratch directory the caller removes with
    :func:`remove_workdir` once it has copied the span file it wants.

    A smoke leg measures for 0 seconds (so ``MIN_QUERIES`` per phase) after one
    warm-up query, with one set-up sample.
    """
    if smoke:
        seconds = 0.0
    workdir = WORK / f"{workload}-{int(traced)}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if workload == SERVE_NAME:
            doc = serve_leg(seed, seconds, traced, smoke, workdir)
        else:
            doc = batch_leg(workload, seed, seconds, traced, smoke, workdir)
    except BaseException:
        remove_workdir({"workdir": str(workdir)})
        raise
    doc["workdir"] = str(workdir)
    return doc


def remove_workdir(doc: dict) -> None:
    shutil.rmtree(doc.pop("workdir"), ignore_errors=True)
    doc.pop("spans_file", None)
    try:
        WORK.rmdir()  # only when no other leg is using it
    except OSError:
        pass
