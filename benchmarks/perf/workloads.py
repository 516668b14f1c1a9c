"""The four workloads: their inputs, their queries, their answers.

Names are fixed — later issues cite them.  Why each exists is in
``BENCHMARK.json`` (one line) and README.md (the long form).

Inputs come from the public generators, never from ``datasets.load``; at seed
0 they equal the ``CL``, ``SL*5`` and ``CL*8`` stand-ins array for array
(``tests/test_inputs.py``).  The seed is added to every structure seed (the
R-MAT edges, the replicate-and-rewire step) and to the serve workload's query
order.  Only the Zipf label draw keeps the stand-in's seed: R-MAT puts the hubs
at the same vertex ids under any seed, so with the labels held the hubs keep
their labels and the *work* of a labelled query stays put -- simulated seconds
(exact, so this is work, not noise) spread 2.6 % (IQR/median) over seeds 0-9
for SM(q3) on SL*5 and 2.7 % for the serve mix on CL, against 31 % and 6.9 %
when the labels are redrawn as well, which the ten-seed spread check would
read as noise.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import time
from pathlib import Path

from repro import algorithms
from repro.core.framework import Gamma
from repro.graph import sm_query
from repro.graph.generators import kronecker
from repro.graph.upscale import upscale
from repro.shard import ProcessExecutor, ShardedGamma
from repro.shard.worker import ShardWorker

NAMES = ("sm_q3_sl5", "fpm_cl", "shard2_kcl4_cl8", "serve_short_cl")
ANSWERS_PATH = Path(__file__).with_name("answers.json")
#: Seeds whose answers are pinned in answers.json; any other seed is checked
#: for self-consistency against the first library answer of the run.
PINNED_SEEDS = (0, 1, 2)
#: A measured phase runs until its seconds are spent and at least this many
#: queries are done (a smoke run measures for 0 seconds: exactly this many).
MIN_QUERIES = 2


# -- inputs -------------------------------------------------------------------
def graph_cl(seed: int):
    return kronecker(11, 17, seed=12 + seed, name="com-lj", labels=8, label_seed=13)


def graph_sl5(seed: int):
    base = kronecker(12, 23, seed=17 + seed, name="soc-Live", labels=8, label_seed=18)
    return upscale(base, 5, seed=18 + seed, name="soc-Live*5")


def graph_cl8(seed: int):
    return upscale(graph_cl(seed), 8, seed=16 + seed, name="com-lj*8")


# -- answers --------------------------------------------------------------------
def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_answers() -> dict:
    with open(ANSWERS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pinned_answer(workload: str, seed: int) -> "dict | None":
    return load_answers()["seeds"].get(str(seed), {}).get(workload)


def gpusim_counts(counters: dict) -> dict:
    """The exact simulator counts every traced leg reports."""
    return {
        "gpusim.page_faults": counters.get("page_faults", 0),
        "gpusim.pcie_bytes": counters.get("bytes_h2d", 0) + counters.get("bytes_d2h", 0),
        "gpusim.zerocopy_txn": counters.get("zc_transactions", 0),
    }


# -- batch workloads (one engine per query, run in benchmarks/perf/child.py) -----
class BatchWorkload:
    """A workload whose query is a library call on a fresh engine."""

    name = "?"
    #: Cores needed for the measurement to mean what its name says.
    min_cores = 1
    #: Untimed queries before the first timed one: as many as the workload
    #: takes to reach its plateau (the pinned allocator's heap stops growing).
    #: The first query touches the whole heap (3-16 s of page faults for
    #: 0.8-1 GB on this VM); with the garbage collected between queries the
    #: second already runs at a fixed resident set without a fault.
    warmup_queries = 1
    #: ``python -m repro`` arguments of the same query on the named stand-in
    #: (the cold-CLI leg; the CLI takes no generated graph, so always seed 0).
    cli_args: tuple = ()
    #: ``resolve_plan`` task for the side measurement of the planner, or None.
    plan_task: "str | None" = None
    #: Shard executor the engines run on (None: a plain single-GPU ``Gamma``).
    executor = None
    pool_cold_start_s = None
    #: Traced-leg side measurements this workload takes: the same query on the
    #: in-process executor; the same query with the checkpoint journal armed.
    serial_comparison = False
    checkpoint_side = False

    def build_graph(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        start = time.perf_counter()
        self.graph = self.build_graph(seed)
        self.graph_build_s = time.perf_counter() - start

    def make_engine(self):
        return Gamma(self.graph)

    def mine(self, engine, plan=None):
        """Run the algorithm; returns the answer document."""
        raise NotImplementedError

    def query(self, with_counters: bool = False, before=None, after=None, plan=None) -> dict:
        """One request: fresh engine -> answer -> engine closed.

        ``before(engine)`` / ``after(engine)`` run around the algorithm (side
        measurements arm checkpointing or build a manifest there).
        """
        engine = self.make_engine()
        try:
            if before is not None:
                before(engine)
            answer = self.mine(engine, plan)
            out = {"answer": answer, "sim_s": engine.simulated_seconds}
            if with_counters:
                out["counters"] = self.counters(engine)
            if after is not None:
                after(engine)
            return out
        finally:
            engine.close()

    def counters(self, engine) -> dict:
        return engine.platform.counters.snapshot(include_zero=True)

    def collect_garbage(self) -> None:
        """Run between queries, off the clock, in every process of the program.

        A closed engine is cyclic garbage that holds ~26 MB of arrays (39
        objects on ``sm_q3_sl5``); left alone, Python frees it at its next
        full collection, some 12-16 queries later.  Until then the heap grows
        by that much a query, and on this kind of VM (free pages are reported
        back to the host, so a fresh page costs ~40 us to touch) that was
        0.1-1.1 s of system time on a 1.5 s query, or none, by the luck of
        the collector's schedule.  Collected here, queries run at a fixed
        resident set with no page faults.
        """
        gc.collect()

    def plan_kwargs(self) -> dict:
        return {}

    @staticmethod
    def parse_cli(stdout: str) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SmQ3Sl5(BatchWorkload):
    name = "sm_q3_sl5"
    cli_args = ("run", "--task", "sm", "--query", "3", "--dataset", "SL*5")
    plan_task = "sm"
    checkpoint_side = True

    def __init__(self):
        self.pattern = sm_query(3)

    def build_graph(self, seed):
        return graph_sl5(seed)

    def mine(self, engine, plan=None):
        # Looked up on the package at call time, so the traced leg's wrapper is seen.
        result = algorithms.match_pattern(engine, self.pattern, plan=plan)
        return {"embeddings": result.embeddings}

    def plan_kwargs(self):
        return {"pattern": self.pattern}

    @staticmethod
    def parse_cli(stdout):
        return {"embeddings": int(re.search(r"query q3: (\d+) embeddings", stdout).group(1))}


class FpmCl(BatchWorkload):
    name = "fpm_cl"
    cli_args = ("run", "--task", "fpm", "--dataset", "CL", "--iterations", "2",
                "--min-support", "118")
    plan_task = "fpm"

    def build_graph(self, seed):
        return graph_cl(seed)

    def plan_kwargs(self):
        return {"iterations": 2, "min_support": self.graph.num_edges // 200,
                "support_metric": "instances"}

    def mine(self, engine, plan=None):
        result = algorithms.frequent_pattern_mining(
            engine, iterations=2, min_support=self.graph.num_edges // 200, plan=plan)
        table = sorted((int(code), int(support)) for code, support in result.patterns.items())
        return {"patterns": len(table), "patterns_digest": digest(table),
                "frequent_per_level": list(result.frequent_per_level)}

    @staticmethod
    def parse_cli(stdout):
        lines = [line.split() for line in stdout.splitlines() if line.startswith("  ")]
        return {"lines": len(lines), "lines_digest": digest(lines)}


class Shard2Kcl4Cl8(BatchWorkload):
    name = "shard2_kcl4_cl8"
    min_cores = 2
    #: With the workers' garbage collected too, their resident sets still
    #: grow for four queries (550 -> 597 -> 599 -> 600 MB, 532 -> 557 -> 575 ->
    #: 581 MB); from the fifth a query takes no page fault, bar 1 MB now and then.
    warmup_queries = 5
    serial_comparison = True
    cli_args = ("run", "--task", "kcl", "--k", "4", "--dataset", "CL*8")
    #: The warm pool, whatever ``executor`` the engines are on at the moment.
    pool = None

    def build_graph(self, seed):
        return graph_cl8(seed)

    def setup(self, seed):
        super().setup(seed)
        # One command more for the workers to be forked, so that
        # ``collect_garbage`` reaches them; nothing the library sends uses it.
        ShardWorker.do_collect_garbage = lambda worker: gc.collect()
        # The serve tier's warm pool: forked once, reset between queries.
        self.pool = self.executor = ProcessExecutor(reusable=True)
        start = time.perf_counter()
        self.make_engine().close()
        self.pool_cold_start_s = time.perf_counter() - start

    def make_engine(self):
        return ShardedGamma(self.graph, num_shards=2, policy="stealing",
                            executor=self.executor)

    def mine(self, engine, plan=None):
        return {"cliques": algorithms.count_kcliques(engine, 4).cliques}

    def counters(self, engine):
        total: dict = {}
        for state in engine.shard_states():
            for key, value in state["counters"].items():
                total[key] = total.get(key, 0) + value
        return total

    def collect_garbage(self):
        super().collect_garbage()
        # The pool's workers keep their closed engines the same way (their
        # heaps crept ~25 MB a query each for 12 queries, 1.2 -> 1.8 GB).
        self.pool.fanout("collect_garbage", [{}] * len(self.pool.pids))

    @staticmethod
    def parse_cli(stdout):
        return {"cliques": int(re.search(r"4-cliques: (\d+)", stdout).group(1))}

    def close(self):
        if self.pool is not None:
            self.pool.terminate()


BATCH = {cls.name: cls for cls in (SmQ3Sl5, FpmCl, Shard2Kcl4Cl8)}


# -- the serving workload ----------------------------------------------------------
SERVE_NAME = "serve_short_cl"
SERVE_TENANTS = 2
#: Served queries before the timed window (the first dozen are 2-4x slower),
#: and the least a timed window serves.
SERVE_WARMUP_QUERIES = 60
SERVE_MIN_QUERIES = 20 * MIN_QUERIES
SERVE_CLI_ARGS = ("run", "--task", "sm", "--query", "1", "--dataset", "CL")
#: One third each; about 10 / 30 / 80 ms of engine time on CL.
SERVE_MIX = {
    "sm1": {"family": "sm", "query": 1},
    "kcl3": {"family": "kcl", "k": 3},
    "sm3": {"family": "sm", "query": 3},
}


def serve_queries(seed: int, count: int) -> list:
    """``count`` (key, spec-document) pairs, equal thirds, in seeded order."""
    keys = [key for key in SERVE_MIX for __ in range(-(-count // len(SERVE_MIX)))][:count]
    random.Random(seed).shuffle(keys)
    return [(key, dict(SERVE_MIX[key], dataset="CL")) for key in keys]


def serve_answer(key: str, result: dict) -> dict:
    field = "cliques" if SERVE_MIX[key]["family"] == "kcl" else "embeddings"
    return {field: result.get(field)}


def parse_serve_cli(stdout: str) -> dict:
    return {"embeddings": int(re.search(r"query q1: (\d+) embeddings", stdout).group(1))}


# -- which layers a workload does not have ----------------------------------------
_NO_POOL = ("shard.pool_cold_start_s", "shard.process_over_serial",
            "shard.worker_user_cpu_s")
_NO_JOURNAL_SIDE = ("resilience.checkpoint_overhead_frac", "resilience.journal_bytes")
#: Per-layer metrics (names or prefixes) a workload takes no measurement for.
#: They are reported as 0 and listed under ``not_on_this_workload``; any other
#: metric missing from a traced leg, or one of these turning up, is a harness
#: error -- so a renamed wrapper or a side measurement that did not run cannot
#: read as zero cost.  (A layer that is wrapped but never called on a workload
#: is a *measured* zero and is not listed here.)
ABSENT = {
    "sm_q3_sl5": ("serve.",) + _NO_POOL,
    "fpm_cl": ("serve.",) + _NO_POOL + _NO_JOURNAL_SIDE,
    "shard2_kcl4_cl8": ("serve.", "plan.") + _NO_JOURNAL_SIDE,
    SERVE_NAME: ("plan.", "obs.collector_overhead_frac", "obs.spans_per_query",
                 "obs.manifest_build_s") + _NO_POOL,
}
