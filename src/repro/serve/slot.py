"""Serve slots: the processes a served query's engine runs in.

Each of ``ServeConfig.slots`` is one forked process running
:func:`serve_slot`.  The scheduler process keeps the queue, admission,
streams, billing and HTTP, and each of its worker threads drives one slot
over a pipe; the slot runs whole attempts.  It builds the engine, resolves
the query's plan (``auto`` through the sqlite :class:`~repro.plan.PlanCache`),
keeps its process pools warm between queries, runs the driver and writes
the manifest — so two tenants' engines run on two cores instead of
sharing one interpreter lock.

Wire protocol (plain data; every message crosses a pickle boundary):

* scheduler -> slot: one run request per attempt, ``{"query", "spec",
  "resume_state", "faults", "exec_seconds"}``, or ``None`` to exit;
* slot -> scheduler, per attempt: ``{"kind": "built", "executor",
  "checkpoint_dir"}`` once the engine exists; ``{"kind": "stage",
  "stage", "info"}`` after each completed level, which blocks until the
  scheduler answers :data:`GO` or :data:`YIELD`; then one final reply —
  ``done`` (the result payload), ``preempted`` (the level, and the pickled
  ``engine.snapshot()`` of an in-slot query) or ``error`` (the pickled
  ``GammaError``; any other exception arrives as an ``ExecutionError``
  holding its traceback, as :class:`~repro.shard.ShardWorker` replies
  carry theirs: :func:`~repro.errors.pickled_error`) — with the slot's
  idle pool counts.

A slot that dies mid-query (EOF on its pipe, or its process gone) is a
:class:`~repro.errors.WorkerCrashed` for the query; the scheduler forks a
replacement, as the process executor does for its shard workers.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from typing import Any, Dict, List, Tuple

from ..algorithms.query import (QuerySpec, resolve_query_plan, result_payload,
                               run_query)
from ..core.framework import Gamma
from ..errors import QueryPreempted, WorkerCrashed, pickled_error
from ..shard import PROCESS_EXECUTOR, ProcessExecutor
from ..shard.executor import default_start_method, serve_default_executor

__all__ = ["GO", "YIELD", "Slot", "SlotProcess", "serve_slot"]

#: The scheduler's verdicts on a streamed stage.
GO = "go"
YIELD = "yield"

#: How often a scheduler waiting on a slot checks that it is still alive.
_LIVENESS_S = 0.2


class Slot:
    """One slot's engine side: graphs, plan cache, warm pools, attempts."""

    def __init__(self, config, graphs: "Dict[str, Any] | None",
                 workdir: str) -> None:
        self.config = config
        self._graphs: Dict[str, Any] = dict(graphs or {})
        self._workdir = workdir
        self._plan_cache = None
        self._pools: Dict[Tuple[str, int], List[ProcessExecutor]] = {}

    # -- graphs / plans / pools ----------------------------------------------
    def _graph(self, abbrev: str):
        graph = self._graphs.get(abbrev)
        if graph is None:
            from ..graph import datasets
            graph = self._graphs[abbrev] = datasets.load(abbrev)
        return graph

    def plan_cache(self):
        """This slot's handle on the shared sqlite plan cache (lazy)."""
        if self._plan_cache is None:
            from ..plan import PlanCache
            self._plan_cache = PlanCache(
                os.path.join(self._workdir, "plan-cache.sqlite"))
        return self._plan_cache

    def _checkout_pool(self, key: Tuple[str, int]) -> ProcessExecutor:
        idle = self._pools.get(key)
        if idle:
            return idle.pop()
        return ProcessExecutor(reusable=True)

    def _return_pool(self, key: Tuple[str, int],
                     pool: ProcessExecutor) -> None:
        if pool._broken or not pool._procs:
            pool.terminate()
            return
        self._pools.setdefault(key, []).append(pool)

    def _build_engine(self, spec: QuerySpec):
        """Returns ``(engine, pool_key, pool)``; pool is None off-pool."""
        graph = self._graph(spec.dataset)
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
                graph, self.config.gamma_config, num_shards=spec.gpus,
                policy=spec.shard_policy, executor=executor)
        except Exception:
            if pool is not None:
                pool.terminate()
            raise
        return engine, key, pool

    def _close_engine(self, engine, key, pool) -> None:
        try:
            engine.close()
        finally:
            if pool is not None:
                self._return_pool(key, pool)

    def _emit_manifest(self, request: dict, engine,
                       wall_seconds: float) -> None:
        if not self.config.manifest_dir:
            return
        from ..obs.manifest import attach_query_tags, write_manifest
        from ..shard import build_sharded_manifest
        spec = request["spec"]
        manifest = build_sharded_manifest(
            engine, system="GAMMA-serve", dataset=spec.dataset,
            task=spec.family, config=engine.config,
            wall_seconds=wall_seconds)
        attach_query_tags(manifest, query_id=request["query"],
                          tenant=spec.tenant, priority=spec.priority,
                          family=spec.family, plan=spec.plan)
        os.makedirs(self.config.manifest_dir, exist_ok=True)
        write_manifest(manifest, os.path.join(
            self.config.manifest_dir, f"query-{request['query']:06d}.json"))

    # -- one attempt ---------------------------------------------------------
    def attempt(self, request: dict, conn) -> dict:
        """Run one attempt of a query; returns its final reply.

        Each completed level goes out as a ``stage`` message and waits for
        the verdict; a :data:`YIELD` raises ``QueryPreempted`` out of the
        driver, and an in-slot engine's snapshot is pickled into the reply
        (worker processes have already journaled it to ``checkpoint_dir``).
        """
        start = time.monotonic()
        spec: QuerySpec = request["spec"]
        engine, key, pool = self._build_engine(spec)
        checkpoint_dir = None
        try:
            # Worker processes journal every op durably, which is what a
            # crash-retry reads back.  An in-slot engine keeps its snapshot
            # in memory and ships it only if the query is preempted; a slot
            # that dies sends its query back to the last hand-over (or the
            # start), which costs less than journaling every op of every
            # query to disk.
            if engine.executor.parallel:
                checkpoint_dir = os.path.join(
                    self._workdir, f"q{request['query']:06d}")
            conn.send({"kind": "built", "executor": engine.executor_name,
                       "checkpoint_dir": checkpoint_dir})
            if request["faults"]:
                engine.install_fault_plan(spec.fault_plan,
                                          shard=spec.fault_shard)
            stage = 0

            def hook(info: dict) -> None:
                nonlocal stage
                stage += 1
                conn.send({"kind": "stage", "stage": stage, "info": info})
                if conn.recv() == YIELD:
                    raise QueryPreempted(request["query"], stage)

            def task(eng):
                nonlocal stage
                stage = 0
                plan = resolve_query_plan(
                    eng, spec,
                    cache=self.plan_cache() if spec.plan == "auto" else None)
                return run_query(eng, spec, level_hook=hook, plan=plan)

            resume_state = request["resume_state"]
            try:
                result = engine.run(
                    task, checkpoint_dir=checkpoint_dir, resume=True,
                    resume_state=(None if resume_state is None
                                  else pickle.loads(resume_state)),
                    policy=spec.degradation)
            except QueryPreempted as exc:
                snapshot = None
                if checkpoint_dir is None:
                    snapshot = pickle.dumps(engine.snapshot(),
                                            pickle.HIGHEST_PROTOCOL)
                return {"kind": "preempted", "level": exc.level,
                        "snapshot": snapshot}
            payload = result_payload(spec, result)
            # Bill the engine's total simulated seconds, not the driver's
            # entry-relative window: a resumed engine enters the driver with
            # the replayed clock already on it, but the *total* is what the
            # checkpoint contract keeps bit-identical across preemptions.
            payload["simulated_seconds"] = engine.simulated_seconds
            self._emit_manifest(request, engine, request["exec_seconds"]
                                + time.monotonic() - start)
            return {"kind": "done", "payload": payload}
        finally:
            # A crashed pool is broken: _return_pool terminates it instead
            # of keeping it warm.
            self._close_engine(engine, key, pool)

    # -- lifecycle -----------------------------------------------------------
    def stats(self) -> dict:
        return {"pools": sum(len(idle) for idle in self._pools.values()),
                "pool_reuses": sum(pool.pool_reuses
                                   for idle in self._pools.values()
                                   for pool in idle)}

    def close(self) -> None:
        pools = [pool for idle in self._pools.values() for pool in idle]
        self._pools = {}
        for pool in pools:
            pool.terminate()
        if self._plan_cache is not None:
            self._plan_cache.close()
            self._plan_cache = None


def _error_reply(exc: Exception) -> dict:
    return {"kind": "error", "error": pickled_error(exc, "serve slot")}


def serve_slot(conn, config, graphs, workdir: str, inherited=(),
               exit_process: bool = True) -> int:
    """Slot main loop: recv a run request, run the attempt, reply.

    ``inherited`` are the scheduler-side pipe ends a forked slot holds
    copies of; it closes them, so that it meets EOF once the scheduler
    closes its end or dies.  ``exit_process=False`` is the in-process test
    harness mode (the loop runs on a thread over a pipe pair, and shares
    those ends with its driver) and returns the exit status.
    """
    if exit_process:
        import multiprocessing
        for end in inherited:
            end.close()
        # Lead a process group: the shard workers forked below join it, so
        # the scheduler can end them if this slot dies (SlotProcess.crashed).
        os.setpgid(0, 0)
        # A slot is daemonic to the scheduler (torn down if the server
        # exits without closing it) yet forks shard workers of its own.
        multiprocessing.current_process().daemon = False
    slot = Slot(config, graphs, workdir)
    status = 0
    try:
        while True:
            request = conn.recv()
            if request is None:
                break
            try:
                reply = slot.attempt(request, conn)
            except Exception as exc:  # noqa: BLE001 - ship it, keep serving
                # A scheduler that vanished mid-attempt fails the send.
                reply = _error_reply(exc)
            reply.update(slot.stats())
            conn.send(reply)
    except (EOFError, OSError):
        status = 1
    finally:
        slot.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
    if exit_process:  # pragma: no cover - subprocess only
        # Skip inherited atexit hooks (coverage, the scheduler's own
        # finalizers belong to the parent).
        os._exit(status)
    return status


class SlotProcess:
    """The scheduler's handle on one slot: its process and pipe end."""

    def __init__(self, index: int, config, graphs: "Dict[str, Any]",
                 workdir: str, siblings: "List[SlotProcess]" = ()) -> None:
        import multiprocessing

        self.index = index
        #: Idle process pools in the slot, and their warm reuses, as of
        #: its last reply.
        self.pools = 0
        self.pool_reuses = 0
        context = multiprocessing.get_context(default_start_method())
        self.conn, child = context.Pipe(duplex=True)
        inherited = [self.conn] + [slot.conn for slot in siblings]
        self.process = self._launch(
            context, child, (config, graphs, workdir, inherited))

    def _launch(self, context, child, args):
        process = context.Process(
            target=serve_slot, args=(child, *args), daemon=True,
            name=f"gamma-serve-slot-{self.index}")
        process.start()
        # One live writer per child end: EOF is how a slot's death shows.
        child.close()
        return process

    def crashed(self) -> WorkerCrashed:
        if self.process.pid is not None:
            # The dead slot's shard workers block on pipes no one will write
            # again: end its process group.
            try:
                os.killpg(self.process.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        self.process.join(timeout=5.0)
        exit_code = self.process.exitcode
        return WorkerCrashed(
            f"serve slot {self.index} process died mid-query "
            f"(exit code {exit_code})", exit_code=exit_code)

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            raise self.crashed() from None

    def recv(self) -> dict:
        try:
            # EOF alone cannot show a death: shard workers the slot forked
            # hold copies of its pipe end.
            while not self.conn.poll(_LIVENESS_S):
                if not self.process.is_alive():
                    raise self.crashed()
            return self.conn.recv()
        except (EOFError, OSError):
            raise self.crashed() from None

    def close(self) -> None:
        try:
            self.conn.send(None)  # orderly-exit sentinel
        except OSError:
            pass  # already dead; the join reaps it
        self.process.join(timeout=30.0)
        if self.process.is_alive():  # pragma: no cover - hung slot
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.conn.close()
