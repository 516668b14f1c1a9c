"""Shard execution backends: where the per-shard engines actually live.

The :class:`~repro.core.framework.Gamma` front never touches a partition
directly — it issues named plain-data commands through a
:class:`ShardExecutor`:

* :class:`SerialExecutor` (default) keeps one :class:`ShardWorker` per
  partition in-process and dispatches inline (live telemetry spans,
  direct fault propagation, ``engine.shards``); one GPU is one partition
  here.
* :class:`ProcessExecutor` forks one worker process per shard and drives
  them over ``multiprocessing`` pipes at BSP-superstep granularity:
  every fan-out sends all N commands before collecting any reply, so the
  per-shard NumPy work genuinely overlaps on multicore hosts.  The graph
  rides in each worker's ``Process`` arguments, as a serve slot's do: a
  forked worker reads the coordinator's CSR arrays in place
  (copy-on-write, never written), a spawned one unpickles its own copy.
  Every reply piggybacks the worker's simulated-clock total so barrier
  targets cost zero extra round trips.

Executor objects are picklable as *inert configuration* (the fork-state
checker audits this): live processes, pipes and engines never survive
``__getstate__`` — a copy starts cold on the other side.

Worker death is first-class: a broken pipe mid-command raises
:class:`~repro.errors.WorkerCrashed` naming the shard, after which the
executor refuses further commands (recovery is a fresh engine resuming
from the per-shard checkpoints).
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ExecutionError, WorkerCrashed
from .worker import ShardWorker, dispatch, serve, submit

__all__ = [
    "EXECUTORS",
    "PROCESS_EXECUTOR",
    "SERIAL_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "SERVE_MIN_CORES",
    "START_METHOD_ENV_VAR",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "default_executor",
    "make_executor",
    "serve_default_executor",
]

SERIAL_EXECUTOR = "serial"
PROCESS_EXECUTOR = "process"
EXECUTORS = (SERIAL_EXECUTOR, PROCESS_EXECUTOR)

#: Tests and CI legs select a backend without threading a flag through
#: every call site (explicit constructor arg still wins).
EXECUTOR_ENV_VAR = "REPRO_SHARD_EXECUTOR"
#: Override the multiprocessing start method (fork where available; spawn
#: costs ~1s of interpreter boot per worker but works everywhere).
START_METHOD_ENV_VAR = "REPRO_SHARD_START_METHOD"


def default_executor() -> str:
    name = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    return name if name else SERIAL_EXECUTOR


#: The serve scheduler defaults to the process backend on hosts with at
#: least this many cores (below it, fork+IPC overhead eats the overlap).
SERVE_MIN_CORES = 4


def serve_default_executor(cpu_count: "int | None" = None,
                           gpus: "int | None" = None) -> str:
    """Backend the serve scheduler uses when a query does not pick one.

    ``REPRO_SHARD_EXECUTOR`` still wins (CI legs and tests pin backends
    through it).  A one-GPU query (``gpus=1``) stays serial: one partition
    has nothing to overlap, so a worker process would only add pickled
    replies and a durable per-op journal.  Otherwise hosts with
    ``>= SERVE_MIN_CORES`` cores get the process backend, everything
    smaller stays serial.  ``cpu_count`` overrides :func:`os.cpu_count`
    for deterministic unit tests.
    """
    name = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    if name:
        return name
    if gpus == 1:
        return SERIAL_EXECUTOR
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return PROCESS_EXECUTOR if cores >= SERVE_MIN_CORES else SERIAL_EXECUTOR


def default_start_method() -> str:
    override = os.environ.get(START_METHOD_ENV_VAR, "").strip()
    if override:
        return override
    import multiprocessing  # the in-process backend never loads it
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardExecutor:
    """Backend interface the ``Gamma`` front drives commands through."""

    name = "?"
    #: True when shards run in separate processes (drives telemetry
    #: grafting, disables ``engine.shards``, etc.).
    parallel = False

    def start(self, *, graph, config, num_shards: int, policy: str,
              interconnect, telemetry: bool = False, platform=None) -> None:
        """Build the partitions; ``platform`` (a hand-built one for
        partition 0) is for the in-process backend only."""
        raise NotImplementedError

    def fanout(self, op: str, args_list: Sequence[dict],
               span_for: "Optional[Callable[[int], Any]]" = None,
               on_shard: "Optional[Callable[[int], None]]" = None) -> list:
        """Run one command on every shard (shard-order results)."""
        raise NotImplementedError

    def call(self, shard: int, op: str, args: "dict | None" = None):
        """Run one command on a single shard."""
        raise NotImplementedError

    def clock_totals(self) -> List[float]:
        """Current simulated-clock total per shard (no extra round trip)."""
        raise NotImplementedError

    def table_parts(self, handles: Sequence[int]) -> list:
        """Driver-facing per-shard table views for fresh table handles."""
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError

    def reset(self, *, graph, config, num_shards: int, policy: str,
              interconnect, telemetry: bool = False) -> bool:
        """Try to warm-reuse a live pool for a new run.

        Returns ``True`` when the pool was reset in place (caller skips the
        cold start).  The base implementation has no pool to amortize.
        """
        return False

    def terminate(self) -> None:
        """Tear down unconditionally, even for a reusable pool."""
        self.shutdown()

    @property
    def pids(self) -> "List[int] | None":
        """Worker process ids (process backend only)."""
        return None


class SerialExecutor(ShardExecutor):
    """In-process backend: original sequential semantics, shared handlers."""

    name = SERIAL_EXECUTOR
    parallel = False

    def __init__(self) -> None:
        self.workers: List[ShardWorker] = []
        self.last_faulted: "int | None" = None

    def start(self, *, graph, config, num_shards: int, policy: str,
              interconnect, telemetry: bool = False, platform=None) -> None:
        # ``telemetry`` is ignored: in-process workers share the front's
        # installed collector (partition 0's platform adopts it at
        # construction).
        self.workers = [
            ShardWorker(index, graph, config, num_shards=num_shards,
                        policy=policy, interconnect=interconnect,
                        platform=platform if index == 0 else None)
            for index in range(num_shards)
        ]

    def fanout(self, op, args_list, span_for=None, on_shard=None) -> list:
        results = []
        for index, args in enumerate(args_list):
            if on_shard is not None:
                on_shard(index)
            context = span_for(index) if span_for is not None else None
            request = {"op": op, "args": args}
            if context is not None:
                with context:
                    results.append(dispatch(self.workers[index], request))
            else:
                results.append(dispatch(self.workers[index], request))
        return results

    def call(self, shard: int, op: str, args=None):
        return dispatch(self.workers[shard], {"op": op, "args": args or {}})

    def clock_totals(self) -> List[float]:
        return [worker.clock_total for worker in self.workers]

    def table_parts(self, handles) -> list:
        # Real EmbeddingTables: serial drivers see exactly the objects the
        # partitions mutate.
        return [self.workers[index]._tables[handle]
                for index, handle in enumerate(handles)]

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.do_close()
        self.workers = []

    # Fork-state contract: a pickled executor is configuration, never live
    # engines — a copy starts cold.
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()


class ProcessExecutor(ShardExecutor):
    """One worker process per shard, driven over pipes in BSP supersteps."""

    name = PROCESS_EXECUTOR
    parallel = True

    def __init__(self, start_method: "str | None" = None,
                 reusable: bool = False) -> None:
        self.start_method = start_method or default_start_method()
        #: Reusable pools survive ``shutdown()`` (``terminate()`` tears
        #: down for real): the serve scheduler runs many short queries and
        #: amortizes fork startup by resetting workers between them.
        self.reusable = bool(reusable)
        self.pool_reuses = 0
        self._procs: list = []
        self._conns: list = []
        self._clocks: List[float] = []
        self._started: "Dict[str, Any] | None" = None
        self.last_faulted: "int | None" = None
        self._broken = False
        self._closed = False

    def start(self, *, graph, config, num_shards: int, policy: str,
              interconnect, telemetry: bool = False, platform=None) -> None:
        import multiprocessing

        if self._procs and self.reset(
            graph=graph, config=config, num_shards=num_shards,
            policy=policy, interconnect=interconnect, telemetry=telemetry,
        ):
            return
        self._broken = False
        self._closed = False
        self.last_faulted = None
        context = multiprocessing.get_context(self.start_method)
        try:
            for index in range(num_shards):
                bootstrap = {
                    "index": index,
                    "graph": graph,
                    "config": config,
                    "num_shards": num_shards,
                    "policy": policy,
                    "interconnect": interconnect,
                    "telemetry": telemetry,
                }
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=serve, args=(child_conn, bootstrap),
                    daemon=True, name=f"gamma-shard-{index}",
                )
                process.start()
                # Drop the coordinator's copy of the child end *before*
                # forking the next worker: EOF-based crash detection needs
                # exactly one live writer per child end.
                child_conn.close()
                self._procs.append(process)
                self._conns.append(parent_conn)
            self._clocks = [0.0] * num_shards
            for index in range(num_shards):
                self._recv(index)  # build ack (engine construction charge)
            self._started = {"graph": graph, "num_shards": num_shards}
        except Exception:
            self.terminate()
            raise

    # -- wire protocol -------------------------------------------------------
    def _ensure_live(self) -> None:
        if self._closed or self._broken:
            raise ExecutionError(
                "process executor is no longer usable (a worker crashed or "
                "the engine was closed); resume from checkpoints with a "
                "fresh engine"
            )

    def _crashed(self, index: int) -> WorkerCrashed:
        self._broken = True
        self.last_faulted = index
        process = self._procs[index]
        process.join(timeout=5.0)
        return WorkerCrashed(
            f"shard {index} worker process died mid-command "
            f"(exit code {process.exitcode})",
            shard=index, exit_code=process.exitcode,
        )

    def _submit(self, index: int, request: dict) -> None:
        try:
            submit(self._conns[index], request)
        except OSError:
            # A send to a dead worker can fail before any recv does (e.g.
            # a real SIGKILL between supersteps); same crash, same surface.
            raise self._crashed(index) from None

    def _recv(self, index: int) -> dict:
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError):
            raise self._crashed(index) from None
        self._clocks[index] = float(reply.get("clock", self._clocks[index]))
        return reply

    def _unwrap(self, replies: List[dict]) -> list:
        for index, reply in enumerate(replies):
            if not reply["ok"]:
                self.last_faulted = index
                raise pickle.loads(reply["error"])
        return [reply["value"] for reply in replies]

    def fanout(self, op, args_list, span_for=None, on_shard=None) -> list:
        # span_for/on_shard are serial-only affordances: worker-side spans
        # are grafted at finalize, and fault attribution rides the replies.
        self._ensure_live()
        self.last_faulted = None
        for index, args in enumerate(args_list):
            self._submit(index, {"op": op, "args": args})
        replies = [self._recv(index) for index in range(len(args_list))]
        return self._unwrap(replies)

    def call(self, shard: int, op: str, args=None):
        self._ensure_live()
        self._submit(shard, {"op": op, "args": args or {}})
        reply = self._recv(shard)
        if not reply["ok"]:
            self.last_faulted = shard
            raise pickle.loads(reply["error"])
        return reply["value"]

    def clock_totals(self) -> List[float]:
        return list(self._clocks)

    def table_parts(self, handles) -> list:
        from .table import RemotePart
        return [RemotePart(self, index, handle)
                for index, handle in enumerate(handles)]

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self._procs]

    def reset(self, *, graph, config, num_shards: int, policy: str,
              interconnect, telemetry: bool = False) -> bool:
        """Warm-reuse the live pool: reset every worker for a new run.

        Succeeds only when the pool is healthy and shaped for the request
        (same worker count, same graph object — :mod:`repro.graph.datasets`
        caches loads, so object identity is the cheap and sound test for
        "the workers already hold this graph").  On any mismatch the
        pool is torn down and ``False`` tells the caller to start cold.
        """
        if not self._procs or self._broken or self._closed:
            return False
        started = self._started
        if (started is None or started["num_shards"] != num_shards
                or started["graph"] is not graph):
            self._teardown()
            return False
        self.last_faulted = None
        args = {"config": config, "policy": policy,
                "interconnect": interconnect, "telemetry": telemetry}
        for index in range(num_shards):
            self._submit(index, {"op": "reset", "args": args})
        replies = [self._recv(index) for index in range(num_shards)]
        self._unwrap(replies)
        self.pool_reuses += 1
        return True

    def shutdown(self) -> None:
        if self.reusable and self._procs and not self._broken:
            # The pool outlives this engine; ``terminate()`` ends it.
            return
        self._teardown()

    def terminate(self) -> None:
        self._teardown()

    def _teardown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._started = None
        for conn in self._conns:
            try:
                conn.send(None)  # orderly-exit sentinel
            except (OSError, ValueError):
                pass
        for process in self._procs:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._procs = []
        self._conns = []

    def __getstate__(self) -> dict:
        return {"start_method": self.start_method,
                "reusable": self.reusable}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state.get("start_method"),
                      reusable=state.get("reusable", False))


def make_executor(name: "str | ShardExecutor | None") -> ShardExecutor:
    """Resolve an executor: object passthrough, name, or env default."""
    if isinstance(name, ShardExecutor):
        return name
    resolved = name if name else default_executor()
    if resolved == SERIAL_EXECUTOR:
        return SerialExecutor()
    if resolved == PROCESS_EXECUTOR:
        return ProcessExecutor()
    raise ExecutionError(
        f"unknown shard executor {resolved!r}; expected one of {EXECUTORS}"
    )
