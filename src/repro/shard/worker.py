"""One partition of a :class:`~repro.core.framework.Gamma` engine.

A :class:`ShardWorker` is one simulated GPU: its platform, the hybrid graph
residency with one access-heat planner per adjacency region, the
result-buffer memory pool, the extension engines, its embedding tables and
its op journal.  The engine front drives it through named plain-data
commands; its ``do_<op>`` handlers *are* the journaled op bodies, so one GPU
is the one-partition case of the same code.

Both executor backends drive the same handlers, so serial execution
exercises every line the process backend runs — parity by construction,
and coverage without subprocess instrumentation.  A command is a
plain-data dict ``{"op": <name>, "args": {...}}``; a reply is
``{"ok": bool, "value"/"error": ..., "clock": <partition clock total>}``.
The piggybacked clock total is what lets the front compute barrier targets
without an extra round trip per superstep.

:func:`submit` is the *only* call that ships a request across the process
boundary.  A request is pickled there, so it must stay free of live handles
(engines, platforms, file objects, RNG state).  Structurally that holds:
requests carry table handles (ints), NumPy arrays, and small config
dataclasses.

Worker processes run :func:`serve` — a recv/dispatch/send loop.  An
injected :class:`~repro.errors.WorkerCrashed` escapes the loop and kills
the process abruptly via ``os._exit`` (no reply, no cleanup), which is how
the crash-matrix tests exercise the front's broken-pipe path without a real
``SIGKILL``.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from ..core.access_planner import AccessHeatPlanner
from ..core.aggregation import (
    aggregate_edge_table,
    dedup_embeddings,
    embedding_set_keys,
)
from ..core.embedding_table import EDGE, VERTEX, EmbeddingTable
from ..core.extension import ExtensionEngine
from ..core.filtering import filter_by_support, filter_rows
from ..core.memory_pool import DYNAMIC, MemoryPool, make_write_strategy
from ..core.pattern_table import PatternTable
from ..core.residence import GammaResidence
from ..core.spill import SpillPolicy, SpillStore
from ..errors import ExecutionError, GammaError, WorkerCrashed
from ..gpusim import clock as clk
from ..gpusim.interconnect import Interconnect
from ..gpusim.platform import make_platform
from ..graph.canonical import QuickPatternEncoder, representative
from ..resilience import runner as res_runner
from ..resilience.checkpoint import CheckpointManager
from ..resilience.faults import BACKOFF_CATEGORY, FaultPlan
from . import policy as shard_policy

__all__ = ["CRASH_EXIT_CODE", "ShardWorker", "dispatch", "serve", "submit"]

#: Exit status of a worker killed by an injected ``worker_crash`` fault.
CRASH_EXIT_CODE = 17

#: Extension variant -> (journal kind, engine method).
_EXTENSIONS = {
    "vertex": ("vertex-extension", "extend_vertices"),
    "vertex-any": ("vertex-extension-any", "extend_vertices_any"),
    "edge": ("edge-extension", "extend_edges"),
}


def _rebuild_pt(codes, supports) -> PatternTable:
    table = PatternTable()
    table.codes = np.ascontiguousarray(codes, dtype=np.int64)
    table.supports = np.ascontiguousarray(supports, dtype=np.int64)
    return table


def _stats_reply(stats) -> dict:
    """An extension's counts as its reply and journal payload."""
    return {
        "rows_in": int(stats.rows_in),
        "rows_out": int(stats.rows_out),
        "candidates": int(stats.candidates),
        "groups": int(stats.groups),
        "kernel_ops": float(stats.kernel_ops),
        "list_reads": int(stats.list_reads),
    }


class ShardWorker:
    """One partition: a simulated GPU's engine state and its op handlers."""

    def __init__(self, index: int, graph, config, num_shards: int,
                 policy: str, interconnect, telemetry: bool = False,
                 platform=None) -> None:
        self.index = index
        self.num_shards = num_shards
        self.policy = policy
        self.collector = None
        if telemetry:
            # Process backend only: the worker grows its own span tree
            # (rooted before the platform so gamma-setup is covered) and
            # ships it to the front for grafting at finalize time.
            from ..obs import spans as obs_spans
            obs_spans.uninstall()
            self.collector = obs_spans.install(obs_spans.SpanCollector())
        self._build(graph, config, interconnect, platform)

    def _build(self, graph, config, interconnect, platform=None) -> None:
        """Per-run state: everything :meth:`do_reset` rebuilds."""
        self.graph = graph
        self.config = config
        if platform is None:
            platform = make_platform(
                num_warps=config.num_warps,
                device_memory_bytes=config.device_memory_bytes,
                cost=config.cost,
            )
        self.platform = platform
        tel = platform.telemetry
        with tel.span("gamma-setup", kind="phase"):
            page = platform.spec.page_size
            buffer_pages = max(
                1, int(platform.spec.device_memory_bytes * config.buffer_fraction) // page
            )
            self.residence = GammaResidence(platform, graph, buffer_pages)
            self.planners = {
                "neighbors": AccessHeatPlanner(
                    platform, self.residence.neighbors, graph.offsets,
                    mode=config.access_mode,
                ),
            }
            pool_bytes = max(
                config.block_bytes,
                int(platform.spec.device_memory_bytes * config.pool_fraction),
            )
            self.pool = (
                MemoryPool(platform, pool_bytes, config.block_bytes)
                if config.write_strategy == DYNAMIC
                else None
            )
            self._strategy = make_write_strategy(
                config.write_strategy, platform, self.pool
            )
            self._vertex_engine = ExtensionEngine(
                platform, self.residence, self._strategy,
                pre_merge=config.pre_merge, planner=self.planners["neighbors"],
            )
        # Built on first edge extension, so vertex-only workloads never map
        # the edge-side CSR copies (see GammaResidence).
        self._edge_engine_cache: ExtensionEngine | None = None
        self.link = Interconnect(platform, interconnect)
        self.encoder = QuickPatternEncoder()
        self._tables: list[EmbeddingTable] = []
        self._assignments: dict = {}
        self._policies: dict = {}
        self._spill_store: SpillStore | None = None
        self._closed = False
        # Journaled-replay checkpointing (repro.resilience).  ``None`` until
        # the front arms it, so plain use pays nothing but one ``is None``
        # test per op.
        self._journal: list | None = None
        self._op_index = 0
        self._replay_cursor = 0
        self._last_state: dict | None = None
        self._ckpt_mgr: CheckpointManager | None = None
        # Installed by the "spill" degradation policy so tables created
        # after it engages are covered too.
        self._spill_policy_override: SpillPolicy | None = None
        if tel.active:
            self._register_gauges(tel)

    def _register_gauges(self, tel) -> None:
        """End-of-run derived gauges (polled once by the span collector)."""
        planner = self.planners["neighbors"]
        tel.gauge("planner.page_heat", planner.heat_histogram)
        pool = self.pool
        if pool is not None:
            tel.gauge("pool.blocks_served", lambda: pool.blocks_served)
            tel.gauge("pool.wasted_bytes", lambda: pool.wasted_bytes)
            tel.gauge(
                "pool.block_occupancy",
                lambda: 1.0 - pool.wasted_bytes
                / max(1, pool.blocks_served * pool.block_bytes),
            )

    # -- plumbing ------------------------------------------------------------
    @property
    def clock_total(self) -> float:
        return self.platform.clock.total

    def _table(self, handle: int) -> EmbeddingTable:
        return self._tables[handle]

    def _assignment(self, units: str) -> np.ndarray:
        cached = self._assignments.get(units)
        if cached is None:
            cached = shard_policy.assign_units(
                self.graph, self.num_shards, units, self.policy
            )
            self._assignments[units] = cached
        return cached

    @property
    def _edge_engine(self) -> ExtensionEngine:
        if self._edge_engine_cache is None:
            planner = AccessHeatPlanner(
                self.platform, self.residence.edge_slots, self.graph.offsets,
                mode=self.config.access_mode,
            )
            self.planners["edge_slots"] = planner
            self._edge_engine_cache = ExtensionEngine(
                self.platform, self.residence, self._strategy,
                pre_merge=self.config.pre_merge, planner=planner,
            )
            tel = self.platform.telemetry
            if tel.active:
                tel.gauge("planner.page_heat_edges", planner.heat_histogram)
        return self._edge_engine_cache

    # -- the op journal (repro.resilience) -------------------------------------
    def _run_op(self, kind: str, execute):
        """Route one op through the replay journal.

        Without checkpointing armed this is a passthrough.  Armed, each op
        gets an index: indices below the replay cursor were already executed
        before the checkpoint, so their recorded reply is returned without
        touching the platform — restored tables, clock and counters already
        reflect them.  Past the cursor, the op runs live, its reply (plain
        data, checkpoint-serializable) is journaled, and a new snapshot is
        taken — level-granular checkpointing, since extensions are ops.
        Every charge a handler makes must happen inside one of these: a
        replay re-applies op replies only, so a charge between ops would be
        billed twice.
        """
        if self._journal is None:
            return execute()
        index = self._op_index
        self._op_index += 1
        if index < self._replay_cursor:
            record = self._journal[index]
            if record["kind"] != kind:
                raise ExecutionError(
                    f"resume mismatch at op {index}: the checkpoint journal "
                    f"recorded {record['kind']!r} but the driver issued "
                    f"{kind!r} — resume requires the same workload"
                )
            return record["payload"]
        result = execute()
        self._journal.append({"kind": kind, "payload": result})
        self._checkpoint()
        return result

    def _checkpoint(self) -> None:
        self._last_state = res_runner.capture_state(self)
        if self._ckpt_mgr is not None:
            self._ckpt_mgr.save(self._last_state)

    # -- table construction / seeding ---------------------------------------
    def _write_buffer_bytes(self) -> int:
        """The configured ET write buffer, capped so small simulated devices
        (memory-scaling experiments) still leave room for everything else."""
        return min(
            self.config.write_buffer_bytes,
            self.platform.spec.device_memory_bytes // 8,
        )

    def _attach_spill(self, table: EmbeddingTable) -> None:
        if self._spill_policy_override is not None:
            if self._spill_store is None:
                self._spill_store = SpillStore(self.platform)
            table.attach_spill(self._spill_store, self._spill_policy_override)
            return
        if not self.config.spill_to_disk:
            return
        if self._spill_store is None:
            self._spill_store = SpillStore(self.platform)
        budget = self.config.spill_budget_bytes
        if budget is None:
            budget = self.platform.spec.host_memory_bytes // 2
        table.attach_spill(
            self._spill_store,
            SpillPolicy(budget, keep_columns=self.config.spill_keep_columns),
        )

    def _build_table(self, kind: str, name: str) -> EmbeddingTable:
        """Raw table construction (also used when a checkpoint is restored
        into a fresh partition, bypassing the op journal)."""
        table = EmbeddingTable(
            self.platform, kind, name,
            write_buffer_bytes=self._write_buffer_bytes(),
        )
        self._attach_spill(table)
        self._tables.append(table)
        return table

    def do_new_table(self, kind: str, name: str) -> int:
        def execute():
            self._build_table(VERTEX if kind == "vertex" else EDGE,
                              f"{name}@{self.index}")
            return len(self._tables) - 1

        return self._run_op("new-table", execute)

    def do_seed_vertices(self, table: int, label=None) -> None:
        def execute():
            with self.platform.telemetry.span("seed-vertices", kind="phase"), \
                    self.platform.resilience.phase("phase:seed-vertices"):
                self._vertex_engine.seed_vertices(self._table(table), label)

        return self._run_op("seed-vertices", execute)

    def do_seed_edges(self, table: int) -> None:
        def execute():
            with self.platform.telemetry.span("seed-edges", kind="phase"), \
                    self.platform.resilience.phase("phase:seed-edges"):
                self._edge_engine.seed_edges(self._table(table))

        return self._run_op("seed-edges", execute)

    def do_seed_explicit(self, table: int, values) -> None:
        def execute():
            self._table(table).seed(np.ascontiguousarray(values, dtype=np.int64))

        return self._run_op("seed-explicit", execute)

    def do_restrict_owned(self, table: int, units: str) -> int:
        """Keep-mask filtering of the units this partition owns; the mask
        is read inside the op, so a replay reads no restored table."""
        def execute():
            part = self._table(table)
            mask = self._assignment(units)[part.column_values(0)] == self.index
            with self.platform.resilience.phase("phase:filtering"):
                return {"removed": int(filter_rows(
                    part, mask, compact=self.config.compaction))}

        return self._run_op("filtering", execute)["removed"]

    # -- extension -----------------------------------------------------------
    def do_extend(self, table: int, variant: str, kwargs: dict) -> dict:
        """``Vertex_Extension`` / ``Edge_Extension`` with extension-time
        pruning; a vertex level's ``count_only`` keeps it as its length
        alone (a counting query's last level: same bill, no rows)."""
        if variant not in _EXTENSIONS:
            raise ExecutionError(f"unknown extension variant {variant!r}")
        kind, method = _EXTENSIONS[variant]

        def execute():
            engine = (self._edge_engine if variant == "edge"
                      else self._vertex_engine)
            phase = "edge-extension" if variant == "edge" else "vertex-extension"
            with self.platform.telemetry.span(phase, kind="phase"), \
                    self.platform.resilience.phase(f"phase:{phase}"):
                return _stats_reply(getattr(engine, method)(
                    self._table(table), **kwargs))

        return self._run_op(kind, execute)

    # -- dedup ---------------------------------------------------------------
    def do_dedup(self, table: int) -> int:
        """Remove duplicate embeddings (same id set) from this partition."""
        def execute():
            with self.platform.resilience.phase("phase:dedup"):
                return int(dedup_embeddings(self.platform, self._table(table)))

        return self._run_op("dedup", execute)

    def do_set_keys(self, table: int) -> np.ndarray:
        """This partition's row set keys for dedup's exchange; none while
        replaying, when the exchange and the reconcile filter they feed are
        answered from the journal (the restored table holds their result,
        or a later one).  The rows are read unbilled, each level once
        (:meth:`EmbeddingTable.peek_rows`): orchestration between ops, whose
        device-visible traffic the exchange op bills."""
        part = self._table(table)
        if self.do_replaying():
            return embedding_set_keys(np.empty((0, part.depth), dtype=np.int64))
        return embedding_set_keys(part.peek_rows())

    # -- aggregation / filtering / output ------------------------------------
    def do_aggregation(self, table: int, support_metric: str,
                       pt_codes, pt_supports) -> dict:
        """``Aggregation(ET, m_f)`` with the canonical-label map function:
        the reply (and journal entry) is the pattern table folded with this
        partition's supports; the level's codes stay on its column."""
        def execute():
            pattern_table = _rebuild_pt(pt_codes, pt_supports)
            with self.platform.resilience.phase("phase:aggregation"):
                aggregate_edge_table(
                    self.platform, self.residence, self._table(table),
                    self.encoder, pattern_table,
                    sort_method=self.config.sort_method,
                    p_size=self.config.p_size,
                    support_metric=support_metric,
                )
            return {"pt_codes": pattern_table.codes,
                    "pt_supports": pattern_table.supports}

        return self._run_op("aggregation", execute)

    def do_filtering(self, table: int, keep_mask=None, pt_codes=None,
                     pt_supports=None, constraint=None) -> dict:
        """``Filtering(ET, PT, constraint)``: either a per-row mask or a
        min-support constraint over a pattern table, read against the codes
        the level's aggregation left."""
        def execute():
            part = self._table(table)
            compact = self.config.compaction
            with self.platform.resilience.phase("phase:filtering"):
                if keep_mask is not None:
                    mask = np.asarray(keep_mask, dtype=bool)
                    return {"removed": int(filter_rows(part, mask,
                                                       compact=compact))}
                if pt_codes is None or constraint is None:
                    raise ExecutionError(
                        "support filtering needs pattern_table and constraint")
                pattern_table = _rebuild_pt(pt_codes, pt_supports)
                removed = filter_by_support(
                    self.platform, part, pattern_table, constraint,
                    compact=compact,
                )
            return {"removed": int(removed), "pt_codes": pattern_table.codes,
                    "pt_supports": pattern_table.supports}

        return self._run_op("filtering", execute)

    def do_output(self, table: int) -> np.ndarray:
        """``output_results(ET)``: this partition's embeddings as a matrix."""
        def execute():
            with self.platform.resilience.phase("phase:output"):
                return self._table(table).materialize()

        return self._run_op("output-results", execute)

    # -- table reads (RemotePart backing) ------------------------------------
    def do_table_info(self, table: int) -> dict:
        part = self._table(table)
        return {
            "num_embeddings": int(part.num_embeddings),
            "depth": int(part.depth),
            "total_cells": int(part.total_cells),
            "nbytes": int(part.nbytes),
        }

    def do_column(self, table: int, what: str, level: int):
        part = self._table(table)
        if what == "values":
            return part.column_values(level)
        if what == "parents":
            return part.column_parents(level)
        if what == "length":
            return part.column_length(level)
        raise ExecutionError(f"unknown column read {what!r}")

    def do_materialize(self, table: int) -> np.ndarray:
        return self._table(table).materialize()

    def do_release_table(self, table: int) -> None:
        def execute():
            self._table(table).release()

        return self._run_op("release-table", execute)

    def do_replaying(self) -> bool:
        """Whether the next op is answered from the replay journal."""
        return self._journal is not None and self._op_index < self._replay_cursor

    # -- BSP charging --------------------------------------------------------
    def do_sync(self, target: float) -> dict:
        """Wait for the barrier's ``target``; the reply (journaled, so a
        replayed barrier returns what the live one saw) is this partition's
        pre-wait clock and the target."""
        def execute():
            clock = self.platform.clock.total
            if target > clock:
                self.platform.clock.advance(clk.SHARD_SYNC, target - clock)
            return {"clock": clock, "target": target}

        return self._run_op("shard-sync", execute)

    def do_exchange(self, kind: str, local: int, total: int,
                    peers: int, merge_ops: float) -> dict:
        """One all-gather and merge; the reply (journaled) is the payload
        this partition sent and the total."""
        def execute():
            self.link.allgather(local, total - local, peers=peers)
            if merge_ops:
                self.platform.kernel.launch(
                    f"shard:{kind}", element_ops=merge_ops
                )
            return {"local": local, "total": total}

        return self._run_op(f"shard-exchange:{kind}", execute)

    def do_charge(self, kernel: str, element_ops: int) -> None:
        def execute():
            self.platform.kernel.launch(kernel, element_ops=element_ops)

        return self._run_op(f"charge:{kernel}", execute)

    # -- resilience ----------------------------------------------------------
    def _check_partition(self, state: dict) -> None:
        """A snapshot resumes only on the partition that took it."""
        version = state.get("version")
        if version != res_runner.STATE_VERSION:
            raise ExecutionError(
                f"checkpoint has state version {version}; this engine reads "
                f"version {res_runner.STATE_VERSION} — rerun without resume"
            )
        recorded = state["partition"]
        taken = recorded.get("num_shards")
        if taken != self.num_shards:
            raise ExecutionError(
                f"checkpoint was taken on {taken} partition(s) but this "
                f"engine has {self.num_shards}; resume needs the same "
                f"partition count"
            )
        mine = {"index": self.index, "num_shards": self.num_shards,
                "policy": self.policy}
        if recorded != mine:
            raise ExecutionError(
                f"checkpoint belongs to partition {recorded.get('index')} "
                f"under policy {recorded.get('policy')!r}; this is partition "
                f"{self.index} under {self.policy!r}"
            )

    def do_enable_checkpointing(self, checkpoint_dir, resume: bool,
                                resume_state=None) -> bool:
        """Arm journaled-replay checkpointing.

        Every completed op leaves a snapshot (:meth:`do_snapshot`).  With a
        ``checkpoint_dir`` it is also written through — each op atomically
        rewrites ``checkpoint.bin`` there — and ``resume=True`` loads that
        file when present.  A loaded file, or a ``resume_state`` handed over
        in memory, is installed here and arms replay, so re-running the same
        driver skips the completed ops and continues live from where the
        snapshot was taken.  Returns ``True`` when a snapshot was installed.
        """
        if self._journal is None:
            self._journal = []
            self._op_index = 0
            self._replay_cursor = 0
        if checkpoint_dir is not None:
            self._ckpt_mgr = CheckpointManager(checkpoint_dir)
            if resume and resume_state is None:
                resume_state = self._ckpt_mgr.load()
        if resume_state is not None:
            self._check_partition(resume_state)
            res_runner.restore_state(self, resume_state)
            self._last_state = res_runner.capture_state(self)
            return True
        # Op-0 snapshot, so even a fault before the first op can rewind.
        self._checkpoint()
        return False

    def do_snapshot(self) -> "dict | None":
        return self._last_state

    def do_rewind(self) -> None:
        res_runner.rewind(self)

    def do_apply_policy(self, name: str, fresh: bool, exc: bytes,
                        attempt: int) -> dict:
        from ..resilience import get_policy
        policy = self._policies.get(name)
        if policy is None or fresh:
            policy = get_policy(name)
            self._policies[name] = policy
        action = policy.apply(self, pickle.loads(exc), attempt)
        return {"policy": policy.name, "action": action}

    def do_advance_backoff(self, seconds: float) -> None:
        self.platform.clock.advance(BACKOFF_CATEGORY, seconds)

    def do_append_event(self, event: dict) -> None:
        self.platform.resilience_log.append(dict(event))

    def do_install_fault_plan(self, plan: dict) -> None:
        self.platform.install_fault_plan(FaultPlan.from_dict(plan))

    # -- state / reporting ---------------------------------------------------
    def do_representatives(self, codes: list) -> dict:
        """``code -> (edges, labels)`` for each of ``codes`` this process's
        canonical table holds (unbilled: naming, not mining)."""
        found = {int(code): representative(code) for code in codes}
        return {code: graph for code, graph in found.items() if graph is not None}

    def do_state(self) -> dict:
        platform = self.platform
        return {
            "clock_total": platform.clock.total,
            "clock_buckets": platform.clock.snapshot(),
            "counters": platform.counters.snapshot(include_zero=True),
            "sync_seconds": platform.clock.time_in(clk.SHARD_SYNC),
            "simulated_seconds": platform.simulated_seconds,
            "peak_device_bytes": platform.device.peak,
            "peak_host_bytes": platform.host_peak,
            "peak_memory_bytes": platform.device.peak + platform.host_peak,
            "resilience_log": [dict(e) for e in platform.resilience_log],
        }

    def do_manifest_doc(self, system, dataset, task, config,
                        collector=None, wall_seconds=None) -> dict:
        from ..obs.manifest import build_manifest
        return build_manifest(
            self.platform, collector, system=system, dataset=dataset,
            task=task, config=config, wall_seconds=wall_seconds,
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
        """Release all platform resources (idempotent).

        Also drops the partition's references to what it built up — the
        tables and the checkpoint journal with its snapshot — so their
        arrays are freed now, by refcount.  A table the caller still holds
        stays readable.
        """
        if self._closed:
            return
        for table in self._tables:
            table.release()
        if self.pool is not None:
            self.pool.release()
        if self._spill_store is not None:
            self._spill_store.close()
        self.residence.release()
        self._tables.clear()
        self._journal = None
        self._last_state = None
        self._closed = True

    def do_reset(self, config, policy, interconnect,
                 telemetry: bool = False) -> None:
        """Rebuild the per-run state for a warm-pool reuse of this worker.

        The process, and the graph it was started with, survive across
        runs; everything per-run — platform, tables, unit assignments,
        telemetry collector — is rebuilt exactly as the constructor would
        build it, so a reused pool is indistinguishable from a cold one
        (the pool regression test pins byte-identical manifests).
        """
        self.do_close()
        self.policy = policy
        if self.collector is not None or telemetry:
            from ..obs import spans as obs_spans
            obs_spans.uninstall()
            self.collector = (obs_spans.install(obs_spans.SpanCollector())
                              if telemetry else None)
        self._build(self.graph, config, interconnect)


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


def serve(conn, bootstrap: dict, exit_process: bool = True) -> int:
    """Worker main loop: build the partition, then recv/dispatch/send.

    ``bootstrap`` is the :class:`ShardWorker`'s keyword arguments, graph
    included.

    ``exit_process=False`` is the in-process test harness mode (the loop
    runs on a thread over a pipe pair): crashes return
    :data:`CRASH_EXIT_CODE` instead of calling ``os._exit``.
    """
    status = 0
    worker = None
    try:
        try:
            worker = ShardWorker(**bootstrap)
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
                # — the front must survive on the broken pipe alone.
                status = CRASH_EXIT_CODE
                if exit_process:  # pragma: no cover - subprocess only
                    os._exit(CRASH_EXIT_CODE)
                return status
            except GammaError as exc:
                reply = {"ok": False, "error": pickle.dumps(exc)}
            reply["clock"] = worker.clock_total
            conn.send(reply)
    except (EOFError, OSError):
        # The front vanished; nothing left to reply to.
        status = 1
    finally:
        if worker is not None:
            try:
                worker.do_close()  # releases any lazy spill temp dir
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
    if exit_process:  # pragma: no cover - subprocess only
        # Skip inherited atexit hooks (coverage/telemetry belong to the
        # front); pipe writes are already flushed at the OS level.
        os._exit(status)
    return status
