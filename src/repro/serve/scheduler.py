"""The serve scheduler: level-by-level execution with preemption.

One :class:`Scheduler` drains a :class:`~repro.serve.queue.QueryQueue`,
building a fresh ``Gamma`` per attempt and running the
query's driver through ``engine.run``.  Three properties fall out of how
the pieces compose:

* **Streaming == batch.**  The driver's ``level_hook`` fires after each
  completed level *inside the same op sequence a batch run executes*, so
  streamed partials are a prefix view of the batch computation, never a
  re-implementation of it.
* **Preemption is free.**  Every op is journaled and leaves a snapshot
  on the engine that holds the table columns by reference, so the hook
  can raise :class:`~repro.errors.QueryPreempted` between levels: the
  engine is torn down, the query requeued, and the next attempt
  re-installs the snapshot and replays the journal bit-identically
  before continuing — a high-priority tenant never waits behind a long
  k-clique run, and the preempt/resume parity suite pins byte-identical
  results.  An in-process query's snapshot changes hands in memory
  (``engine.snapshot()`` -> ``QueryState.resume_state`` ->
  ``run(resume_state=...)``) and only when it is preempted: unpreempted,
  it serialises nothing and touches no disk.
* **Crashes are contained.**  Only a worker process can die under a live
  server, so only a query on the process backend keeps a durable
  journal (``checkpoint_dir``, written through after every op).  A
  :class:`~repro.errors.WorkerCrashed` marks only that query (retry from
  that journal or fail, per its ``on_crash`` policy); the broken pool is
  evicted and other tenants never notice.

Two driving modes share the same ``_execute`` core: ``run_until_idle``
drains synchronously on the calling thread (the deterministic mode every
property test uses), and ``start``/``stop`` run ``slots`` worker threads
for the HTTP service and the load-generator benchmark.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.framework import Gamma
from ..errors import (
    ExecutionError,
    GammaError,
    QueryPreempted,
    WorkerCrashed,
)
from ..shard import PROCESS_EXECUTOR, ProcessExecutor
from ..shard.executor import serve_default_executor
from . import queue as serve_queue
from .query import QuerySpec, result_payload, run_query
from .queue import QueryQueue, QueryState
from .records import billing_record, write_billing_record
from .stream import ResultStream  # noqa: F401  (re-exported surface)

__all__ = ["Scheduler", "ServeConfig"]


@dataclass
class ServeConfig:
    """Scheduler-wide settings (per-query knobs live on the spec)."""

    #: Concurrent execution slots (worker threads in threaded mode).
    slots: int = 2
    #: Default partition backend of every query; ``None`` resolves via
    #: :func:`repro.shard.serve_default_executor` (serial at one GPU,
    #: process on >=4 cores otherwise).
    executor: "str | None" = None
    #: Keep process pools alive between queries (same dataset + shape).
    reuse_pools: bool = True
    #: Allow higher-priority queries to suspend running ones.
    preemption: bool = True
    #: Checkpoint-resume retries granted to a query whose worker crashed.
    crash_retries: int = 1
    #: Root for the plan cache and the journals of queries on worker
    #: processes (a temp dir when ``None``).
    workdir: "str | None" = None
    #: When set, per-query manifests and billing records land here.
    manifest_dir: "str | None" = None
    #: Engine configuration shared by every query's engine.
    gamma_config: Any = None
    auto_register: bool = True
    default_max_inflight: int = 2
    default_max_pending: int = 64


class Scheduler:
    """Runs admitted queries over per-query engines, preemptibly."""

    def __init__(self, config: "ServeConfig | None" = None,
                 graphs: "Dict[str, Any] | None" = None,
                 queue: "QueryQueue | None" = None) -> None:
        self.config = config or ServeConfig()
        self.queue = queue if queue is not None else QueryQueue(
            slots=self.config.slots,
            auto_register=self.config.auto_register,
            default_quota=serve_queue.TenantQuota(
                max_inflight=self.config.default_max_inflight,
                max_pending=self.config.default_max_pending,
            ),
        )
        self._graphs: Dict[str, Any] = dict(graphs or {})
        self._workdir = self.config.workdir or tempfile.mkdtemp(
            prefix="gamma-serve-")
        self._own_workdir = self.config.workdir is None
        self._lock = threading.Lock()
        self._plan_lock = threading.Lock()
        self._plan_cache = None
        self._pools: Dict[Tuple[str, int], List[ProcessExecutor]] = {}
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._idle_workers = 0
        self._closed = False

    # -- submission ----------------------------------------------------------
    def submit(self, spec: "QuerySpec | dict") -> QueryState:
        if isinstance(spec, dict):
            spec = QuerySpec.from_dict(spec)
        return self.queue.submit(spec)

    # -- graphs / plans / pools ----------------------------------------------
    def _graph(self, abbrev: str):
        with self._lock:
            graph = self._graphs.get(abbrev)
        if graph is None:
            from ..graph import datasets
            graph = datasets.load(abbrev)
            with self._lock:
                self._graphs[abbrev] = graph
        return graph

    def plan_cache(self):
        """The shared :class:`~repro.plan.PlanCache` (lazily opened)."""
        with self._plan_lock:
            if self._plan_cache is None:
                from ..plan import PlanCache
                self._plan_cache = PlanCache(
                    os.path.join(self._workdir, "plan-cache.sqlite"))
            return self._plan_cache

    def _resolve_plan(self, engine, spec: QuerySpec):
        """Pre-resolve ``auto`` plans through the shared cache."""
        if spec.plan != "auto":
            return spec.plan
        from ..graph import sm_query
        from ..plan import resolve_plan
        cache = self.plan_cache()
        with self._plan_lock:
            if spec.family == "sm":
                return resolve_plan(
                    engine, "sm", pattern=sm_query(spec.query),
                    plan="auto", cache=cache,
                    symmetry_breaking=spec.symmetry_breaking)
            if spec.family == "kcl":
                return resolve_plan(engine, "kclique", plan="auto",
                                    cache=cache, k=spec.k)
            if spec.family == "fpm":
                return resolve_plan(
                    engine, "fpm", plan="auto", cache=cache,
                    iterations=spec.iterations,
                    min_support=spec.min_support,
                    support_metric=spec.support_metric)
            return resolve_plan(engine, "motif", plan="auto", cache=cache,
                                num_edges=spec.num_edges)

    def _checkout_pool(self, key: Tuple[str, int]) -> ProcessExecutor:
        with self._lock:
            idle = self._pools.get(key)
            if idle:
                return idle.pop()
        return ProcessExecutor(reusable=True)

    def _return_pool(self, key: Tuple[str, int],
                     pool: ProcessExecutor) -> None:
        if pool._broken or not pool._procs:
            pool.terminate()
            return
        with self._lock:
            if self._closed:
                pool.terminate()
                return
            self._pools.setdefault(key, []).append(pool)

    def _build_engine(self, spec: QuerySpec):
        """Returns ``(engine, pool_key, pool)``; pool is None off-pool."""
        graph = self._graph(spec.dataset)
        config = self.config.gamma_config
        name = spec.executor or self.config.executor \
            or serve_default_executor(gpus=spec.gpus)
        executor: Any = name
        key = None
        pool = None
        if name == PROCESS_EXECUTOR and self.config.reuse_pools:
            key = (spec.dataset, spec.gpus)
            pool = self._checkout_pool(key)
            executor = pool
        try:
            engine = Gamma(
                graph, config, num_shards=spec.gpus,
                policy=spec.shard_policy, executor=executor)
        except Exception:
            if pool is not None:
                pool.terminate()
            raise
        return engine, key, pool

    # -- execution core ------------------------------------------------------
    def _make_hook(self, state: QueryState, sync: bool,
                   on_stage: "Optional[Callable]" = None):
        def hook(info: dict) -> None:
            state.stage_calls += 1
            stage = state.stage_calls
            live = stage > state.stages_emitted
            if live:
                state.stages_emitted = stage
                state.stream.emit("partial", n=stage, **info)
            if on_stage is not None:
                on_stage(state, stage, info)
            if (live and self.config.preemption
                    and self._no_free_worker(sync)
                    and self.queue.preemptor_waiting(state)):
                raise QueryPreempted(state.id, stage)
        return hook

    def _no_free_worker(self, sync: bool) -> bool:
        if sync:
            return True
        with self._lock:
            return self._idle_workers == 0

    def _close_engine(self, engine, key, pool) -> None:
        try:
            engine.close()
        finally:
            if pool is not None:
                self._return_pool(key, pool)

    def _execute(self, state: QueryState, sync: bool = False,
                 on_stage: "Optional[Callable]" = None) -> str:
        """Run one attempt of ``state``; returns its outcome string."""
        spec = state.spec
        attempt_start = time.monotonic()
        if state._wait_since is not None:
            state.queue_seconds += attempt_start - state._wait_since
            state._wait_since = None
        resuming = state.status == serve_queue.PREEMPTED
        state.status = serve_queue.RUNNING
        if resuming:
            state.resumes += 1
            state.stream.emit("resumed", attempt=state.resumes + 1)
        else:
            state.stream.emit("started", tenant=spec.tenant,
                              family=spec.family, gpus=spec.gpus)

        try:
            engine, key, pool = self._build_engine(spec)
        except GammaError as exc:
            state.exec_seconds += time.monotonic() - attempt_start
            self._finish(state, error=str(exc), release=True)
            return serve_queue.FAILED
        state.executor_used = engine.executor_name
        # Disk is for processes that can die.  Worker processes journal
        # every op durably, which is what a crash-retry reads back; an
        # in-thread engine dies with this server, so its snapshot stays in
        # memory and changes hands only if the query is preempted.
        if engine.executor.parallel:
            state.checkpoint_dir = os.path.join(
                self._workdir, f"q{state.id:06d}")
        if spec.fault_plan is not None and state.crashes == 0:
            # Injected faults model transient failures: the plan is not
            # re-installed once it has killed a worker, so a crash-retry
            # resumes clean from the checkpoint (a plan that names
            # ``level:2`` would otherwise re-fire on every attempt).
            from ..resilience.faults import FaultPlan
            engine.install_fault_plan(FaultPlan.from_dict(spec.fault_plan),
                                      shard=spec.fault_shard)

        hook = self._make_hook(state, sync, on_stage)

        def task(eng):
            state.stage_calls = 0
            plan = self._resolve_plan(eng, spec)
            return run_query(eng, spec, level_hook=hook, plan=plan)

        try:
            result = engine.run(task, checkpoint_dir=state.checkpoint_dir,
                                resume=True, resume_state=state.resume_state,
                                policy=spec.degradation)
        except QueryPreempted as exc:
            if state.checkpoint_dir is None:
                state.resume_state = engine.snapshot()
            self._close_engine(engine, key, pool)
            state.exec_seconds += time.monotonic() - attempt_start
            state.preemptions += 1
            state.stream.emit("preempted", stage=exc.level)
            self.queue.requeue(state)
            return serve_queue.PREEMPTED
        except WorkerCrashed as exc:
            # engine.close() reaps the broken pool; _return_pool sees the
            # broken flag and terminates instead of re-pooling it.
            self._close_engine(engine, key, pool)
            state.exec_seconds += time.monotonic() - attempt_start
            state.crashes += 1
            state.stream.emit("crash", shard=exc.shard,
                              exit_code=exc.exit_code, message=str(exc))
            if (spec.on_crash == "retry"
                    and state.crashes <= self.config.crash_retries):
                self.queue.requeue(state)
                return "crash-retry"
            self._finish(state, error=f"worker crashed: {exc}",
                         release=True)
            return serve_queue.FAILED
        except GammaError as exc:
            self._close_engine(engine, key, pool)
            state.exec_seconds += time.monotonic() - attempt_start
            self._finish(state, error=str(exc), release=True)
            return serve_queue.FAILED

        state.exec_seconds += time.monotonic() - attempt_start
        payload = result_payload(spec, result)
        # Bill the engine's total simulated seconds, not the driver's
        # entry-relative window: a resumed engine enters the driver with
        # the replayed clock already on it, but the *total* is what the
        # checkpoint contract keeps bit-identical across preemptions.
        payload["simulated_seconds"] = engine.simulated_seconds
        self._emit_manifest(state, engine)
        self._close_engine(engine, key, pool)
        self._finish(state, payload=payload, release=True)
        return serve_queue.COMPLETED

    def _finish(self, state: QueryState, payload: "dict | None" = None,
                error: "str | None" = None, release: bool = False) -> None:
        if release:
            self.queue.release(state)
        state.finished_wall = time.time()
        state.finished_mono = time.monotonic()
        if error is None:
            state.status = serve_queue.COMPLETED
            state.result = payload
            state.stream.emit("result", **(payload or {}))
        else:
            state.status = serve_queue.FAILED
            state.error = error
            state.stream.emit("error", message=error)
        state.billing = billing_record(state)
        state.stream.emit("billing", **state.billing)
        state.stream.close()
        if self.config.manifest_dir:
            write_billing_record(state.billing, self.config.manifest_dir)
        state.resume_state = None
        if state.checkpoint_dir is not None:
            shutil.rmtree(state.checkpoint_dir, ignore_errors=True)

    def _emit_manifest(self, state: QueryState, engine) -> None:
        if not self.config.manifest_dir:
            return
        from ..obs.manifest import attach_query_tags, write_manifest
        spec = state.spec
        from ..shard import build_sharded_manifest
        manifest = build_sharded_manifest(
            engine, system="GAMMA-serve", dataset=spec.dataset,
            task=spec.family, config=engine.config,
            wall_seconds=state.exec_seconds)
        attach_query_tags(manifest, query_id=state.id, tenant=spec.tenant,
                          priority=spec.priority, family=spec.family,
                          plan=spec.plan)
        os.makedirs(self.config.manifest_dir, exist_ok=True)
        write_manifest(manifest, os.path.join(
            self.config.manifest_dir, f"query-{state.id:06d}.json"))

    # -- synchronous mode ----------------------------------------------------
    def run_until_idle(self, on_stage: "Optional[Callable]" = None,
                       max_steps: int = 10_000) -> int:
        """Drain the queue on the calling thread; returns attempts run.

        The deterministic mode: one attempt at a time, every preemption
        decision forced by queue state alone (no free-worker races).
        ``on_stage(state, stage, info)`` runs after each streamed stage —
        property tests inject mid-run submissions through it.
        """
        steps = 0
        while True:
            state = self.queue.acquire(block=False)
            if state is None:
                return steps
            self._execute(state, sync=True, on_stage=on_stage)
            steps += 1
            if steps >= max_steps:
                raise ExecutionError(
                    f"run_until_idle exceeded {max_steps} attempts")

    # -- threaded mode -------------------------------------------------------
    def start(self) -> None:
        """Spawn ``slots`` worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.config.slots):
            thread = threading.Thread(
                target=self._worker_loop, daemon=True,
                name=f"gamma-serve-{index}")
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                self._idle_workers += 1
            try:
                state = self.queue.acquire(block=True, timeout=0.2)
            finally:
                with self._lock:
                    self._idle_workers -= 1
            if state is not None:
                self._execute(state)

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
        self._threads = []

    def wait_idle(self, timeout: "float | None" = None) -> bool:
        """Block until no work is pending or in flight (threaded mode)."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        while (self.queue.pending_count() > 0
               or self.queue.inflight_count() > 0):
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    # -- lifecycle -----------------------------------------------------------
    def stats(self) -> dict:
        stats = self.queue.stats()
        with self._lock:
            stats["idle_workers"] = self._idle_workers
            stats["pools"] = sum(len(v) for v in self._pools.values())
            stats["pool_reuses"] = sum(
                pool.pool_reuses for pools in self._pools.values()
                for pool in pools)
        return stats

    def close(self) -> None:
        self.stop()
        with self._lock:
            self._closed = True
            pools = [pool for idle in self._pools.values() for pool in idle]
            self._pools = {}
        for pool in pools:
            pool.terminate()
        with self._plan_lock:
            if self._plan_cache is not None:
                self._plan_cache.close()
                self._plan_cache = None
        if self._own_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # A scheduler is a single-process object (its queue, pools, and
    # worker threads cannot cross a fork); the pickle hooks exist only
    # to drop the process-local sqlite handle so a stray serialization
    # attempt fails loudly on the live parts, not on the plan cache.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_plan_cache"] = None  # reopened lazily via plan_cache()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plan_cache = None
