"""The per-shard worker: one ``Gamma`` engine behind a command surface.

Both executor backends drive the *same* :class:`ShardWorker` handlers, so
serial execution exercises every line the process backend runs — parity by
construction, and coverage without subprocess instrumentation.  A command
is a plain-data dict ``{"op": <name>, "args": {...}}``; a reply is
``{"ok": bool, "value"/"error": ..., "clock": <shard clock total>}``.  The
piggybacked clock total is what lets the coordinator compute barrier
targets without an extra round trip per superstep.

:func:`submit` is the *only* call that ships a request across the process
boundary.  A request is pickled there, so it must stay free of live handles
(engines, platforms, file objects, RNG state).  Structurally that holds:
requests carry table handles (ints), NumPy arrays, and small config
dataclasses.

Worker processes run :func:`serve` — a recv/dispatch/send loop.  An
injected :class:`~repro.errors.WorkerCrashed` escapes the loop and kills
the process abruptly via ``os._exit`` (no reply, no cleanup), which is how
the crash-matrix tests exercise the coordinator's broken-pipe path without
a real ``SIGKILL``.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from ..core.aggregation import embedding_set_keys
from ..core.embedding_table import EmbeddingTable
from ..core.framework import Gamma, _apply_stats, _capture_stats
from ..core.pattern_table import PatternTable
from ..errors import ExecutionError, GammaError, WorkerCrashed
from ..gpusim import clock as clk
from ..gpusim.interconnect import Interconnect
from ..resilience import runner as res_runner
from ..resilience.faults import BACKOFF_CATEGORY, FaultPlan
from . import policy as shard_policy

__all__ = ["CRASH_EXIT_CODE", "ShardWorker", "dispatch", "serve", "submit"]

#: Exit status of a worker killed by an injected ``worker_crash`` fault.
CRASH_EXIT_CODE = 17


def _host_rows(part: EmbeddingTable) -> np.ndarray:
    """Uncharged host-side view of a shard table's full embeddings.

    Orchestration (computing ownership/duplicate masks) reads the
    host-resident table directly, like the algorithm drivers do; the
    device-visible traffic it stands in for is billed explicitly by the
    exchange ops.
    """
    depth = part.depth
    n = part.num_embeddings
    out = np.empty((n, depth), dtype=np.int64)
    current = np.arange(n, dtype=np.int64)
    for level in range(depth - 1, -1, -1):
        out[:, level] = part.column_values(level)[current]
        current = part.column_parents(level)[current]
    return out


def _rebuild_pt(codes, supports) -> PatternTable:
    table = PatternTable()
    table.codes = np.ascontiguousarray(codes, dtype=np.int64)
    table.supports = np.ascontiguousarray(supports, dtype=np.int64)
    return table


class ShardWorker:
    """One shard's engine plus the command handlers both backends share."""

    def __init__(self, index: int, graph, config, num_shards: int,
                 policy: str, interconnect, telemetry: bool = False) -> None:
        self.index = index
        self.num_shards = num_shards
        self.policy = policy
        self.collector = None
        if telemetry:
            # Process backend only: the worker grows its own span tree
            # (rooted before the engine so gamma-setup is covered) and
            # ships it to the coordinator for grafting at finalize time.
            from ..obs import spans as obs_spans
            obs_spans.uninstall()
            self.collector = obs_spans.install(obs_spans.SpanCollector())
        self.engine = Gamma(graph, config)
        self.link = Interconnect(self.engine.platform, interconnect)
        self.tables: list = []
        self._assignments: dict = {}
        self._policies: dict = {}

    # -- plumbing ------------------------------------------------------------
    @property
    def clock_total(self) -> float:
        return self.engine.platform.clock.total

    def _table(self, handle: int) -> EmbeddingTable:
        return self.tables[handle]

    def _assignment(self, units: str) -> np.ndarray:
        cached = self._assignments.get(units)
        if cached is None:
            cached = shard_policy.assign_units(
                self.engine.graph, self.num_shards, units, self.policy
            )
            self._assignments[units] = cached
        return cached

    # -- table construction / seeding ---------------------------------------
    def do_new_table(self, kind: str, name: str) -> int:
        maker = (self.engine.new_vertex_table if kind == "vertex"
                 else self.engine.new_edge_table)
        self.tables.append(maker(f"{name}@{self.index}"))
        return len(self.tables) - 1

    def do_seed_vertices(self, table: int, label=None) -> None:
        self.engine.seed_vertices(self._table(table), label)

    def do_seed_edges(self, table: int) -> None:
        self.engine.seed_edges(self._table(table))

    def do_seed_explicit(self, table: int, values) -> None:
        self._table(table).seed(np.ascontiguousarray(values, dtype=np.int64))

    def do_restrict_owned(self, table: int, units: str) -> int:
        part = self._table(table)
        assignment = self._assignment(units)
        mask = assignment[part.column_values(0)] == self.index
        return self.engine.filtering(part, keep_mask=mask)

    # -- extension -----------------------------------------------------------
    def do_extend(self, table: int, variant: str, kwargs: dict) -> dict:
        part = self._table(table)
        if variant == "vertex":
            stats = self.engine.vertex_extension(part, **kwargs)
        elif variant == "vertex-any":
            stats = self.engine.vertex_extension_any(part, **kwargs)
        elif variant == "edge":
            stats = self.engine.edge_extension(part, **kwargs)
        else:
            raise ExecutionError(f"unknown extension variant {variant!r}")
        return _capture_stats(stats)

    # -- dedup ---------------------------------------------------------------
    def do_dedup(self, table: int) -> int:
        return self.engine.dedup(self._table(table))

    def do_set_keys(self, table: int) -> np.ndarray:
        return embedding_set_keys(_host_rows(self._table(table)))

    # -- aggregation / filtering / output ------------------------------------
    def do_aggregation(self, table: int, support_metric: str,
                       pt_codes, pt_supports) -> dict:
        pattern_table = _rebuild_pt(pt_codes, pt_supports)
        codes = self.engine.aggregation(
            self._table(table), pattern_table, support_metric
        )
        return {"codes": codes, "pt_codes": pattern_table.codes,
                "pt_supports": pattern_table.supports}

    def do_filtering(self, table: int, keep_mask=None, row_codes=None,
                     pt_codes=None, pt_supports=None, constraint=None) -> dict:
        part = self._table(table)
        pattern_table = (_rebuild_pt(pt_codes, pt_supports)
                         if pt_codes is not None else None)
        removed = self.engine.filtering(
            part,
            keep_mask=(np.asarray(keep_mask, dtype=bool)
                       if keep_mask is not None else None),
            pattern_table=pattern_table,
            row_codes=(np.asarray(row_codes, dtype=np.int64)
                       if row_codes is not None else None),
            constraint=constraint,
        )
        reply = {"removed": int(removed)}
        if pattern_table is not None:
            reply["pt_codes"] = pattern_table.codes
            reply["pt_supports"] = pattern_table.supports
        return reply

    def do_output(self, table=None, pt_codes=None, pt_supports=None):
        part = self._table(table) if table is not None else None
        pattern_table = (_rebuild_pt(pt_codes, pt_supports)
                         if pt_codes is not None else None)
        return self.engine.output_results(part, pattern_table)

    # -- table reads (RemotePart backing) ------------------------------------
    def do_table_info(self, table: int) -> dict:
        part = self._table(table)
        return {
            "num_embeddings": int(part.num_embeddings),
            "depth": int(part.depth),
            "total_cells": int(part.total_cells),
            "nbytes": int(part.nbytes),
            "num_levels": len(part.columns),
        }

    def do_column(self, table: int, what: str, level: int):
        part = self._table(table)
        if what == "values":
            return part.column_values(level)
        if what == "parents":
            return part.column_parents(level)
        if what == "length":
            return len(part.columns[level])
        raise ExecutionError(f"unknown column read {what!r}")

    def do_materialize(self, table: int) -> np.ndarray:
        return self._table(table).materialize()

    def do_release_table(self, table: int) -> None:
        self._table(table).release()

    # -- BSP charging --------------------------------------------------------
    def do_sync(self, target: float):
        engine = self.engine

        def execute():
            wait = target - engine.platform.clock.total
            if wait > 0:
                engine.platform.clock.advance(clk.SHARD_SYNC, wait)
            return None

        return engine.custom_op("shard-sync", execute)

    def do_exchange(self, kind: str, local: int, total: int,
                    peers: int, merge_ops: float):
        engine = self.engine

        def execute():
            self.link.allgather(local, total - local, peers=peers)
            if merge_ops:
                engine.platform.kernel.launch(
                    f"shard:{kind}", element_ops=merge_ops
                )
            return None

        return engine.custom_op(f"shard-exchange:{kind}", execute)

    # -- resilience ----------------------------------------------------------
    def do_enable_checkpointing(self, checkpoint_dir, resume: bool,
                                resume_state=None) -> bool:
        return self.engine.enable_checkpointing(
            checkpoint_dir, resume=resume, resume_state=resume_state)

    def do_snapshot(self):
        return self.engine.snapshot()

    def do_rewind(self) -> None:
        res_runner.rewind(self.engine)

    def do_apply_policy(self, name: str, fresh: bool, exc: bytes,
                        attempt: int) -> dict:
        from ..resilience import get_policy
        policy = self._policies.get(name)
        if policy is None or fresh:
            policy = get_policy(name)
            self._policies[name] = policy
        action = policy.apply(self.engine, pickle.loads(exc), attempt)
        return {"policy": policy.name, "action": action}

    def do_advance_backoff(self, seconds: float) -> None:
        self.engine.platform.clock.advance(BACKOFF_CATEGORY, seconds)

    def do_append_event(self, event: dict) -> None:
        self.engine.platform.resilience_log.append(dict(event))

    def do_install_fault_plan(self, plan: dict) -> None:
        self.engine.platform.install_fault_plan(FaultPlan.from_dict(plan))

    # -- state / reporting ---------------------------------------------------
    def do_state(self) -> dict:
        platform = self.engine.platform
        return {
            "clock_total": platform.clock.total,
            "clock_buckets": platform.clock.snapshot(),
            "counters": platform.counters.snapshot(include_zero=True),
            "sync_seconds": platform.clock.time_in(clk.SHARD_SYNC),
            "simulated_seconds": self.engine.simulated_seconds,
            "peak_device_bytes": self.engine.peak_device_bytes,
            "peak_host_bytes": self.engine.peak_host_bytes,
            "peak_memory_bytes": self.engine.peak_memory_bytes,
            "resilience_log": [dict(e) for e in platform.resilience_log],
        }

    def do_manifest_doc(self, system, dataset, task, config,
                        collector=None) -> dict:
        from ..obs.manifest import build_manifest
        return build_manifest(
            self.engine.platform, collector, system=system, dataset=dataset,
            task=task, config=config,
        )

    def do_collect_spans(self):
        if self.collector is None:
            return None
        from ..obs.exporters import span_tree_records
        self.collector.finish()
        return span_tree_records(self.collector)

    def do_clock(self) -> None:
        """No-op: the piggybacked reply clock is the whole answer."""

    def do_close(self) -> None:
        self.engine.close()
        self.tables = []

    def do_reset(self, config, policy, interconnect,
                 telemetry: bool = False) -> None:
        """Rebuild the per-run state for a warm-pool reuse of this worker.

        The process (and its shm graph attachment) survives across runs;
        everything per-run — engine, tables, unit assignments, telemetry
        collector — is rebuilt exactly as the constructor would build it,
        so a reused pool is indistinguishable from a cold one (the pool
        regression test pins byte-identical manifests).
        """
        graph = self.engine.graph
        self.engine.close()
        self.policy = policy
        self.tables = []
        self._assignments = {}
        self._policies = {}
        if self.collector is not None or telemetry:
            from ..obs import spans as obs_spans
            obs_spans.uninstall()
            self.collector = (obs_spans.install(obs_spans.SpanCollector())
                              if telemetry else None)
        self.engine = Gamma(graph, config)
        self.link = Interconnect(self.engine.platform, interconnect)


def dispatch(worker: ShardWorker, request: dict):
    """Execute one command on a worker (shared by both backends)."""
    op = str(request["op"])
    handler = getattr(worker, "do_" + op.replace("-", "_"), None)
    if handler is None or op.startswith("_"):
        raise ExecutionError(f"unknown shard command {op!r}")
    return handler(**request.get("args", {}))


def submit(conn, request: dict) -> None:
    """Ship one plain-data command to a worker process.

    Everything in ``request`` crosses a pickle boundary, so live handles
    must never appear here.
    """
    conn.send(request)


def _build_worker(bootstrap: dict):
    from . import shm
    attached = shm.attach_graph(bootstrap["graph"])
    worker = ShardWorker(
        index=bootstrap["index"],
        graph=attached.graph,
        config=bootstrap["config"],
        num_shards=bootstrap["num_shards"],
        policy=bootstrap["policy"],
        interconnect=bootstrap["interconnect"],
        telemetry=bootstrap.get("telemetry", False),
    )
    return worker, attached


def serve(conn, bootstrap: dict, exit_process: bool = True) -> int:
    """Worker main loop: build the engine, then recv/dispatch/send.

    ``exit_process=False`` is the in-process test harness mode (the loop
    runs on a thread over a pipe pair): crashes return
    :data:`CRASH_EXIT_CODE` instead of calling ``os._exit``.
    """
    status = 0
    attached = None
    worker = None
    try:
        try:
            worker, attached = _build_worker(bootstrap)
        except BaseException as exc:  # noqa: BLE001 - ship the build failure
            conn.send({"ok": False, "error": pickle.dumps(
                ExecutionError(f"shard worker failed to start: {exc!r}")),
                "clock": 0.0})
            return 1
        conn.send({"ok": True, "value": None, "clock": worker.clock_total})
        while True:
            request = conn.recv()
            if request is None:
                break
            try:
                reply = {"ok": True, "value": dispatch(worker, request)}
            except WorkerCrashed:
                # Simulated hard crash: die abruptly, no reply, no cleanup
                # — the coordinator must survive on the broken pipe alone.
                status = CRASH_EXIT_CODE
                if exit_process:  # pragma: no cover - subprocess only
                    os._exit(CRASH_EXIT_CODE)
                return status
            except GammaError as exc:
                reply = {"ok": False, "error": pickle.dumps(exc)}
            reply["clock"] = worker.clock_total
            conn.send(reply)
    except (EOFError, OSError):
        # Coordinator vanished; nothing left to reply to.
        status = 1
    finally:
        if worker is not None:
            try:
                worker.engine.close()  # releases any lazy spill temp dir
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        if attached is not None:
            attached.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
    if exit_process:  # pragma: no cover - subprocess only
        # Skip inherited atexit hooks (coverage/telemetry belong to the
        # coordinator); pipe writes are already flushed at the OS level.
        os._exit(status)
    return status
