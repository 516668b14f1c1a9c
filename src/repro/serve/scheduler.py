"""The serve scheduler: level-by-level execution with preemption.

One :class:`Scheduler` drains a :class:`~repro.serve.queue.QueryQueue`
onto ``slots`` forked slot processes (:mod:`repro.serve.slot`).  The
scheduler process keeps the queue, admission, streams and billing and
builds no engine; a slot builds a fresh ``Gamma`` per attempt and runs
the query's driver through ``engine.run``, so tenants' engines run on
separate cores.  Three properties fall out of how the pieces compose:

* **Streaming == batch.**  The driver's ``level_hook`` fires after each
  completed level *inside the same op sequence a batch run executes*; the
  slot sends that level's partial over its pipe and waits for the
  scheduler's verdict, so streamed partials are a prefix view of the
  batch computation, never a re-implementation of it.
* **Preemption is free.**  Every op is journaled and leaves a snapshot
  on the engine that holds the table columns by reference, so a
  ``yield`` verdict raises :class:`~repro.errors.QueryPreempted` between
  levels: the engine is torn down, the query requeued, and the next
  attempt re-installs the snapshot and replays the journal
  bit-identically before continuing — a high-priority tenant never waits
  behind a long k-clique run, and the preempt/resume parity suite pins
  byte-identical results.  An in-slot query's snapshot leaves its slot
  pickled (``engine.snapshot()`` -> ``QueryState.resume_state`` -> any
  slot's ``run(resume_state=...)``) and only when it is preempted:
  unpreempted, it serialises nothing and touches no disk.
* **Crashes are contained.**  A slot or a shard worker process can die
  under a live server.  A query on the process backend keeps a durable
  journal (``checkpoint_dir``, written through after every op); an
  in-slot query restarts from its last hand-over, or from the start.  A
  :class:`~repro.errors.WorkerCrashed` — a shard worker's, or a dead
  slot's — marks only that query (retry or fail, per its ``on_crash``
  policy); a broken pool is evicted, a dead slot is forked anew, and
  other tenants never notice.

Two driving modes share the same ``_execute`` core: ``run_until_idle``
drains synchronously on the calling thread through slot 0 (the
deterministic mode every property test uses), and ``start``/``stop``
run one worker thread per slot, each a thin driver of its slot, for the
HTTP service and the load-generator benchmark.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ExecutionError, WorkerCrashed
from . import queue as serve_queue
from . import slot as slot_mod
from ..algorithms.query import QuerySpec
from .queue import QueryQueue, QueryState
from .records import billing_record, write_billing_record
from .slot import SlotProcess
from .stream import ResultStream  # noqa: F401  (re-exported surface)

__all__ = ["Scheduler", "ServeConfig"]


@dataclass
class ServeConfig:
    """Scheduler-wide settings (per-query knobs live on the spec)."""

    #: Concurrent execution slots: forked processes that each run one
    #: query's engine at a time.
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
        self._slots: List[SlotProcess] = []
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._idle_workers = 0
        self._closed = False

    # -- submission ----------------------------------------------------------
    def submit(self, spec: "QuerySpec | dict") -> QueryState:
        if isinstance(spec, dict):
            spec = QuerySpec.from_dict(spec)
        return self.queue.submit(spec)

    # -- slots ---------------------------------------------------------------
    def _ensure_slots(self, count: int) -> None:
        """Fork slots until ``count`` exist (before any worker thread)."""
        while len(self._slots) < count:
            self._fork_slot(len(self._slots))

    def _fork_slot(self, index: int) -> None:
        """Fork slot ``index`` into place.

        Under the lock, so no fork inherits a pipe end it does not know to
        close: a slot must meet EOF when the scheduler drops or loses it.
        """
        with self._lock:
            slot = slot_mod.SlotProcess(index, self.config, self._graphs,
                                        self._workdir, self._slots)
            if index < len(self._slots):
                self._slots[index] = slot
            else:
                self._slots.append(slot)

    # -- execution core ------------------------------------------------------
    def _verdict(self, state: QueryState, stage: int, info: dict,
                 sync: bool, on_stage: "Optional[Callable]") -> str:
        """Stream one completed level and decide whether the query yields."""
        live = stage > state.stages_emitted
        if live:
            state.stages_emitted = stage
            state.stream.emit("partial", n=stage, **info)
        if on_stage is not None:
            on_stage(state, stage, info)
        if (live and self.config.preemption
                and self._no_free_worker(sync)
                and self.queue.preemptor_waiting(state)):
            return slot_mod.YIELD
        return slot_mod.GO

    def _no_free_worker(self, sync: bool) -> bool:
        if sync:
            return True
        with self._lock:
            return self._idle_workers == 0

    def _drive(self, slot: SlotProcess, state: QueryState, sync: bool,
               on_stage: "Optional[Callable]") -> dict:
        """Run one attempt of ``state`` on ``slot``; returns its final reply
        with any error unpickled.

        A slot that dies mid-attempt comes back as an ``error`` reply
        carrying ``WorkerCrashed``, and is replaced by a fresh fork.
        """
        spec = state.spec
        try:
            slot.send({
                "query": state.id, "spec": spec,
                "resume_state": state.resume_state,
                # Injected faults model transient failures: the plan is not
                # re-installed once it has killed a worker, so a crash-retry
                # resumes clean from the checkpoint (a plan that names
                # ``level:2`` would otherwise re-fire on every attempt).
                "faults": spec.fault_plan is not None and state.crashes == 0,
                "exec_seconds": state.exec_seconds,
            })
            while True:
                message = slot.recv()
                if message["kind"] == "built":
                    state.executor_used = message["executor"]
                    state.checkpoint_dir = message["checkpoint_dir"]
                elif message["kind"] == "stage":
                    slot.send(self._verdict(state, message["stage"],
                                            message["info"], sync, on_stage))
                else:
                    slot.pools = message["pools"]
                    slot.pool_reuses = message["pool_reuses"]
                    if message["kind"] == "error":
                        message["error"] = pickle.loads(message["error"])
                    return message
        except WorkerCrashed as exc:
            self._replace_slot(slot)
            return {"kind": "error", "error": exc}
        except BaseException:
            # The slot is mid-attempt, out of step with this driver (an
            # ``on_stage`` callback raised, or an interrupt).
            self._replace_slot(slot)
            raise

    def _replace_slot(self, slot: SlotProcess) -> None:
        """Fork a fresh slot in place of a dead or out-of-step one."""
        # A live slot meets EOF at its next message and exits.
        slot.conn.close()
        if not self._closed:
            self._fork_slot(slot.index)

    def _execute(self, state: QueryState, slot: SlotProcess,
                 sync: bool = False,
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

        reply = self._drive(slot, state, sync, on_stage)
        state.exec_seconds += time.monotonic() - attempt_start
        if reply["kind"] == "done":
            self._finish(state, payload=reply["payload"], release=True)
            return serve_queue.COMPLETED
        if reply["kind"] == "preempted":
            if reply["snapshot"] is not None:
                state.resume_state = reply["snapshot"]
            state.preemptions += 1
            state.stream.emit("preempted", stage=reply["level"])
            self.queue.requeue(state)
            return serve_queue.PREEMPTED
        error = reply["error"]
        if isinstance(error, WorkerCrashed):
            state.crashes += 1
            state.stream.emit("crash", shard=error.shard,
                              exit_code=error.exit_code, message=str(error))
            if (spec.on_crash == "retry"
                    and state.crashes <= self.config.crash_retries):
                self.queue.requeue(state)
                return "crash-retry"
            self._finish(state, error=f"worker crashed: {error}",
                         release=True)
            return serve_queue.FAILED
        self._finish(state, error=str(error), release=True)
        return serve_queue.FAILED

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

    # -- synchronous mode ----------------------------------------------------
    def run_until_idle(self, on_stage: "Optional[Callable]" = None,
                       max_steps: int = 10_000) -> int:
        """Drain the queue on the calling thread; returns attempts run.

        The deterministic mode: one attempt at a time on slot 0 (forked on
        first use), every preemption decision forced by queue state alone
        (no free-worker races).  ``on_stage(state, stage, info)`` runs
        after each streamed stage, while the slot waits for its verdict —
        property tests inject mid-run submissions through it.
        """
        steps = 0
        while True:
            state = self.queue.acquire(block=False)
            if state is None:
                return steps
            self._ensure_slots(1)
            self._execute(state, self._slots[0], sync=True,
                          on_stage=on_stage)
            steps += 1
            if steps >= max_steps:
                raise ExecutionError(
                    f"run_until_idle exceeded {max_steps} attempts")

    # -- threaded mode -------------------------------------------------------
    def start(self) -> None:
        """Fork ``slots`` slots, then one worker thread each (idempotent).

        The forks come first, while no worker (or HTTP) thread runs.
        """
        if self._threads:
            return
        self._stop.clear()
        self._ensure_slots(self.config.slots)
        for index in range(self.config.slots):
            thread = threading.Thread(
                target=self._worker_loop, args=(index,), daemon=True,
                name=f"gamma-serve-{index}")
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self, index: int) -> None:
        while not self._stop.is_set():
            with self._lock:
                self._idle_workers += 1
            try:
                state = self.queue.acquire(block=True, timeout=0.2)
            finally:
                with self._lock:
                    self._idle_workers -= 1
            if state is not None:
                # A crash replaces the slot, so look it up per attempt.
                with self._lock:
                    slot = self._slots[index]
                self._execute(state, slot)

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
            stats["pools"] = sum(slot.pools for slot in self._slots)
            stats["pool_reuses"] = sum(slot.pool_reuses
                                       for slot in self._slots)
        return stats

    def close(self) -> None:
        """Stop the workers, then end every slot (its pools go with it)."""
        self.stop()
        with self._lock:
            self._closed = True
            slots, self._slots = self._slots, []
        for slot in slots:
            slot.close()
        if self._own_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
