"""GAMMA: the user-facing framework object (paper Fig. 3).

:class:`Gamma` wires the whole stack for one data graph: the simulated
platform, the hybrid graph residency with one access-heat planner per
adjacency region, the result-buffer memory pool, the extension engine and
the canonical encoder.  Its methods mirror the paper's user-visible
interfaces — ``vertex_extension``, ``edge_extension``, ``aggregation``,
``filtering``, ``output_results`` — so the algorithm drivers in
:mod:`repro.algorithms` read like Algorithms 1 and 2.

:class:`GammaConfig` exposes every design knob the evaluation ablates:
write strategy (Fig. 17/18), pre-merge (Fig. 17/18), access mode (Fig. 20),
sort method (Fig. 19), compaction (Fig. 10) and warp count (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..errors import (
    DeviceOutOfMemory,
    ExecutionError,
    HostOutOfMemory,
    SpillIOError,
)
from ..graph.canonical import QuickPatternEncoder
from ..graph.csr import CSRGraph
from ..gpusim.platform import GpuPlatform, make_platform
from ..gpusim.spec import CostModel
from ..resilience import runner as res_runner
from ..resilience.checkpoint import CheckpointManager
from ..resilience.faults import BACKOFF_CATEGORY
from .access_planner import ACCESS_MODES, HYBRID, AccessHeatPlanner
from .aggregation import aggregate_edge_table, dedup_embeddings
from .embedding_table import EDGE, VERTEX, EmbeddingTable
from .extension import ExtensionEngine, ExtensionStats
from .filtering import MinSupport, filter_by_support, filter_rows
from .memory_pool import (
    DEFAULT_BLOCK_BYTES,
    DYNAMIC,
    STRATEGIES,
    MemoryPool,
    make_write_strategy,
)
from .pattern_table import PatternTable
from .residence import GammaResidence
from .sort import DEFAULT_P_SIZE, MULTI_MERGE, SORT_METHODS
from .spill import SpillPolicy, SpillStore


@dataclass(frozen=True)
class GammaConfig:
    """Design knobs of the framework (defaults = the paper's GAMMA)."""

    #: Active warps (Fig. 16 sweeps this); ``None`` = device default.
    num_warps: Optional[int] = None
    #: Device memory override in bytes (``None`` = scaled V100 default).
    device_memory_bytes: Optional[int] = None
    #: Host access strategy for the CSR: hybrid | unified | zerocopy (Fig. 20).
    access_mode: str = HYBRID
    #: Optimization 2 (Fig. 17/18 "pre-merge").
    pre_merge: bool = True
    #: Optimization 1 (Fig. 17/18 "dynamic-alloc"); dynamic | two_pass | prealloc.
    write_strategy: str = DYNAMIC
    #: Embedding-table compression after filtering (§V-A).
    compaction: bool = True
    #: Memory-pool block size (8 KB in the paper).
    block_bytes: int = DEFAULT_BLOCK_BYTES
    #: Fraction of device memory for the result-buffer pool.
    pool_fraction: float = 0.25
    #: Fraction of device memory for each hybrid region's page buffer.
    buffer_fraction: float = 0.2
    #: Optimization 3 (Fig. 19): multi_merge | naive_merge | xtr2sort | cpu_sort.
    sort_method: str = MULTI_MERGE
    #: Checkpoint spacing for the multi-merge.
    p_size: int = DEFAULT_P_SIZE
    #: Device write buffer for extension results (§V-A).
    write_buffer_bytes: int = 2 << 20
    #: Extension tier beyond host memory: spill cold embedding-table
    #: columns to disk (repro.core.spill) instead of dying with host OOM.
    spill_to_disk: bool = False
    #: Host bytes an embedding table may hold before spilling; ``None`` =
    #: half the simulated host memory.
    spill_budget_bytes: Optional[int] = None
    #: Most recent columns kept resident when spilling.
    spill_keep_columns: int = 2
    #: Cost-model override (calibration experiments).
    cost: Optional[CostModel] = None

    def __post_init__(self) -> None:
        if self.access_mode not in ACCESS_MODES:
            raise ExecutionError(f"access_mode must be one of {ACCESS_MODES}")
        if self.write_strategy not in STRATEGIES:
            raise ExecutionError(f"write_strategy must be one of {STRATEGIES}")
        if self.sort_method not in SORT_METHODS:
            raise ExecutionError(f"sort_method must be one of {SORT_METHODS}")
        if not 0 < self.pool_fraction < 1 or not 0 < self.buffer_fraction < 1:
            raise ExecutionError("pool/buffer fractions must be in (0, 1)")

    def variant(self, **changes) -> "GammaConfig":
        """A copy with some knobs changed (ablation convenience)."""
        return replace(self, **changes)


class Gamma:
    """The GAMMA framework bound to one data graph."""

    def __init__(
        self,
        graph: CSRGraph,
        config: GammaConfig | None = None,
        platform: GpuPlatform | None = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else GammaConfig()
        if platform is None:
            platform = make_platform(
                num_warps=self.config.num_warps,
                device_memory_bytes=self.config.device_memory_bytes,
                cost=self.config.cost,
            )
        self.platform = platform

        tel = platform.telemetry
        with tel.span("gamma-setup", kind="phase"):
            page = platform.spec.page_size
            buffer_pages = max(
                1, int(platform.spec.device_memory_bytes * self.config.buffer_fraction) // page
            )
            self.residence = GammaResidence(platform, graph, buffer_pages)
            self.planners = {
                "neighbors": AccessHeatPlanner(
                    platform,
                    self.residence.neighbors,
                    graph.offsets,
                    mode=self.config.access_mode,
                ),
            }
            pool_bytes = max(
                self.config.block_bytes,
                int(platform.spec.device_memory_bytes * self.config.pool_fraction),
            )
            self.pool = (
                MemoryPool(platform, pool_bytes, self.config.block_bytes)
                if self.config.write_strategy == DYNAMIC
                else None
            )
            self._strategy = make_write_strategy(
                self.config.write_strategy, platform, self.pool
            )
            self._vertex_engine = ExtensionEngine(
                platform, self.residence, self._strategy,
                pre_merge=self.config.pre_merge,
                planner=self.planners["neighbors"],
            )
        # Built on first edge extension, so vertex-only workloads never map
        # the edge-side CSR copies (see GammaResidence).
        self._edge_engine_cache: ExtensionEngine | None = None
        self.encoder = QuickPatternEncoder()
        self._tables: list[EmbeddingTable] = []
        self._spill_store: SpillStore | None = None
        self._closed = False
        # Journaled-replay checkpointing (repro.resilience).  ``None`` until
        # run()/enable_checkpointing arms it, so plain use pays nothing but
        # one ``is None`` test per user-visible op.
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

    # -- table construction (Fig. 3 data structures) -----------------------------
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
        into a fresh engine, bypassing the op journal)."""
        table = EmbeddingTable(
            self.platform, kind, name,
            write_buffer_bytes=self._write_buffer_bytes(),
        )
        self._attach_spill(table)
        table.owner = self  # lets the Fig. 3 free functions find the engine
        self._tables.append(table)
        return table

    def new_vertex_table(self, name: str = "v-ET") -> EmbeddingTable:
        return self._run_op(
            "new-table",
            lambda: self._build_table(VERTEX, name),
            capture=lambda table: {"index": len(self._tables) - 1},
            apply=lambda payload: self._tables[payload["index"]],
        )

    def new_edge_table(self, name: str = "e-ET") -> EmbeddingTable:
        return self._run_op(
            "new-table",
            lambda: self._build_table(EDGE, name),
            capture=lambda table: {"index": len(self._tables) - 1},
            apply=lambda payload: self._tables[payload["index"]],
        )

    @property
    def _edge_engine(self) -> ExtensionEngine:
        if self._edge_engine_cache is None:
            planner = AccessHeatPlanner(
                self.platform,
                self.residence.edge_slots,
                self.graph.offsets,
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

    # -- resilience: op journal, checkpoints, degradation (repro.resilience) --
    def _run_op(self, kind: str, execute, capture=None, apply=None):
        """Route one user-visible op through the replay journal.

        Without checkpointing armed this is a passthrough.  Armed, each op
        gets an index: indices below the replay cursor were already executed
        before the checkpoint, so their recorded result is re-applied
        (``apply``) without touching the platform — restored tables, clock
        and counters already reflect them.  Past the cursor, the op runs
        live, its result is journaled (``capture``), and a new snapshot is
        taken — level-granular checkpointing, since extensions are ops.
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
            return apply(record["payload"]) if apply is not None else None
        result = execute()
        self._journal.append(
            {"kind": kind,
             "payload": capture(result) if capture is not None else {}}
        )
        self._checkpoint()
        return result

    def custom_op(self, kind: str, execute, capture=None, apply=None):
        """Route an engine-extension step through the op journal.

        Layers built on top of the engine (e.g. the sharded front-end's
        exchange/barrier steps, :mod:`repro.shard`) must bill their charges
        inside ops: during a resumed replay only op results are re-applied,
        so any charge made between ops would be double-billed.  ``execute``
        runs the step live; ``capture`` turns its result into a
        checkpoint-serializable payload; ``apply`` rebuilds the result from
        that payload during replay.  Semantics match the built-in ops
        (see :meth:`run`).
        """
        return self._run_op(kind, execute, capture, apply)

    def _checkpoint(self) -> None:
        self._last_state = res_runner.capture_state(self)
        if self._ckpt_mgr is not None:
            self._ckpt_mgr.save(self._last_state)

    def enable_checkpointing(
        self,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        resume_state: dict | None = None,
    ) -> bool:
        """Arm journaled-replay checkpointing.

        Every completed op leaves a snapshot on the engine
        (:meth:`snapshot`).  With a ``checkpoint_dir`` it is also written
        through — each op atomically rewrites ``checkpoint.bin`` there —
        and ``resume=True`` loads that file when present.  A loaded file,
        or a ``resume_state`` another engine's :meth:`snapshot` handed over
        in memory, is installed into this engine and arms replay, so
        re-running the same driver skips the completed ops and continues
        live from where the snapshot was taken.  Returns ``True`` when a
        snapshot was actually installed.
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
            res_runner.restore_state(self, resume_state)
            self._last_state = res_runner.capture_state(self)
            return True
        # Op-0 snapshot, so even a fault before the first op can rewind.
        self._checkpoint()
        return False

    def snapshot(self) -> dict | None:
        """The engine's state after its last completed op.

        ``None`` before checkpointing is armed.  Table columns are held by
        reference, not copied; hand the snapshot to a fresh engine's
        ``run(task, resume_state=...)`` to continue there, or to
        :func:`~repro.resilience.checkpoint.serialize_state` for bytes.
        """
        return self._last_state

    def run(
        self,
        task,
        *,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        resume_state: dict | None = None,
        policy=None,
        max_retries: int = 8,
        backoff_seconds: float = 0.05,
    ):
        """Run a workload with checkpoint/resume and graceful degradation.

        ``task`` is a callable taking this engine (e.g. ``lambda g:
        count_kcliques(g, 4)``) or an object with a ``run(engine)`` method.
        Checkpointing is always armed; ``checkpoint_dir``/``resume`` add
        cross-process persistence and ``resume_state`` continues from a
        snapshot handed over in memory (see :meth:`enable_checkpointing`).

        ``policy`` names a degradation policy (see
        :data:`repro.resilience.DEGRADATION_POLICIES`) or is an instance.
        When a memory fault or spill I/O error escapes the task, the engine
        rewinds to the last per-op snapshot, asks the policy to adjust
        (halve extension chunks, demote unified pages, engage the disk
        tier), charges an exponential recovery backoff to the simulated
        clock, records the event in ``platform.resilience_log`` (and thus
        the run manifest), and retries — at most ``max_retries`` times.
        Without a policy, or when the policy gives up, the fault propagates.

        Drivers must route all *charged* work through the engine's op
        methods: during a resumed replay only op results are re-applied, so
        charged reads done directly between ops would be double-billed.
        """
        fn = task if callable(task) else task.run
        if isinstance(policy, str):
            from ..resilience import get_policy

            policy = get_policy(policy)
        self.enable_checkpointing(checkpoint_dir, resume=resume,
                                  resume_state=resume_state)
        attempts = 0
        while True:
            try:
                return fn(self)
            except (DeviceOutOfMemory, HostOutOfMemory, SpillIOError) as exc:
                attempts += 1
                if policy is None or attempts > max_retries:
                    raise
                # Rewind before asking the policy: its adjustments (planner
                # modes, page sets, spill attachments) must not be clobbered
                # by the snapshot restore.
                res_runner.rewind(self)
                action = policy.apply(self, exc, attempts)
                if action is None:
                    raise
                self.platform.clock.advance(
                    BACKOFF_CATEGORY,
                    backoff_seconds * (2 ** (attempts - 1)),
                )
                event = {
                    "type": "degradation",
                    "policy": policy.name,
                    "attempt": attempts,
                    "error": type(exc).__name__,
                }
                event.update(action)
                self.platform.resilience_log.append(event)

    # -- the five user-visible interfaces (Fig. 3) ---------------------------------
    def seed_vertices(self, table: EmbeddingTable, label: int | None = None):
        def execute():
            with self.platform.telemetry.span("seed-vertices", kind="phase"), \
                    self.platform.resilience.phase("phase:seed-vertices"):
                return self._vertex_engine.seed_vertices(table, label)

        return self._run_op(
            "seed-vertices", execute,
            capture=lambda t: {"table": self._tables.index(t)},
            apply=lambda payload: self._tables[payload["table"]],
        )

    def seed_edges(self, table: EmbeddingTable):
        def execute():
            with self.platform.telemetry.span("seed-edges", kind="phase"), \
                    self.platform.resilience.phase("phase:seed-edges"):
                return self._edge_engine.seed_edges(table)

        return self._run_op(
            "seed-edges", execute,
            capture=lambda t: {"table": self._tables.index(t)},
            apply=lambda payload: self._tables[payload["table"]],
        )

    def vertex_extension(
        self,
        table: EmbeddingTable,
        anchor_cols,
        label: int | None = None,
        greater_than_col: int | None = None,
        greater_than_cols=(),
        less_than_cols=(),
        injective: bool = True,
        count_only: bool = False,
    ) -> ExtensionStats:
        """``Vertex_Extension(ET, G_d)`` with extension-time pruning;
        ``count_only`` keeps the level as its length alone (a counting
        query's last level: same bill, no rows)."""
        def execute():
            with self.platform.telemetry.span("vertex-extension", kind="phase"), \
                    self.platform.resilience.phase("phase:vertex-extension"):
                return self._vertex_engine.extend_vertices(
                    table, anchor_cols, label=label,
                    greater_than_col=greater_than_col,
                    greater_than_cols=greater_than_cols,
                    less_than_cols=less_than_cols,
                    injective=injective, count_only=count_only,
                )

        return self._run_op(
            "vertex-extension", execute,
            capture=_capture_stats, apply=_apply_stats,
        )

    def vertex_extension_any(
        self,
        table: EmbeddingTable,
        anchor_cols,
        label: int | None = None,
        greater_than_col: int | None = None,
        greater_than_cols=(),
        less_than_cols=(),
        injective: bool = True,
    ) -> ExtensionStats:
        """Union-neighborhood vertex extension (Definition 3.1's literal
        ``N_v(M)``), used by connected-subgraph enumeration."""
        def execute():
            with self.platform.telemetry.span("vertex-extension", kind="phase"), \
                    self.platform.resilience.phase("phase:vertex-extension"):
                return self._vertex_engine.extend_vertices_any(
                    table, anchor_cols, label=label,
                    greater_than_col=greater_than_col,
                    greater_than_cols=greater_than_cols,
                    less_than_cols=less_than_cols,
                    injective=injective,
                )

        return self._run_op(
            "vertex-extension-any", execute,
            capture=_capture_stats, apply=_apply_stats,
        )

    def edge_extension(self, table: EmbeddingTable,
                       greater_than_col: int | None = None) -> ExtensionStats:
        """``Edge_Extension(ET, G_d)``; ``greater_than_col`` applies the
        planner's ordered-growth restriction (candidate edge id strictly
        above the id in that column)."""
        def execute():
            with self.platform.telemetry.span("edge-extension", kind="phase"), \
                    self.platform.resilience.phase("phase:edge-extension"):
                return self._edge_engine.extend_edges(
                    table, greater_than_col=greater_than_col)

        return self._run_op(
            "edge-extension", execute,
            capture=_capture_stats, apply=_apply_stats,
        )

    def aggregation(
        self,
        table: EmbeddingTable,
        pattern_table: PatternTable,
        support_metric: str = "instances",
    ) -> np.ndarray:
        """``Aggregation(ET, m_f)`` with the canonical-label map function.
        Returns per-row canonical codes; ``support_metric`` selects raw
        instance frequency or MNI."""
        def execute():
            with self.platform.resilience.phase("phase:aggregation"):
                return aggregate_edge_table(
                    self.platform, self.residence, table, self.encoder,
                    pattern_table,
                    sort_method=self.config.sort_method,
                    p_size=self.config.p_size,
                    support_metric=support_metric,
                )

        def capture(codes):
            return {
                "codes": codes,
                "pt_codes": pattern_table.codes.copy(),
                "pt_supports": pattern_table.supports.copy(),
            }

        def apply(payload):
            pattern_table.codes = np.array(payload["pt_codes"], dtype=np.int64)
            pattern_table.supports = np.array(
                payload["pt_supports"], dtype=np.int64
            )
            return np.array(payload["codes"], dtype=np.int64)

        return self._run_op("aggregation", execute, capture, apply)

    def filtering(
        self,
        table: EmbeddingTable,
        keep_mask: np.ndarray | None = None,
        pattern_table: PatternTable | None = None,
        row_codes: np.ndarray | None = None,
        constraint: MinSupport | None = None,
    ) -> int:
        """``Filtering(ET, PT, constraint)``: either a per-row mask or a
        min-support constraint over a pattern table."""
        def execute():
            with self.platform.resilience.phase("phase:filtering"):
                if keep_mask is not None:
                    return filter_rows(
                        table, keep_mask, compact=self.config.compaction
                    )
                if pattern_table is None or row_codes is None or constraint is None:
                    raise ExecutionError(
                        "support filtering needs pattern_table, row_codes "
                        "and constraint"
                    )
                return filter_by_support(
                    self.platform, table, row_codes, pattern_table, constraint,
                    compact=self.config.compaction,
                )

        def capture(removed):
            payload = {"removed": int(removed)}
            if pattern_table is not None:
                payload["pt_codes"] = pattern_table.codes.copy()
                payload["pt_supports"] = pattern_table.supports.copy()
            return payload

        def apply(payload):
            if pattern_table is not None and "pt_codes" in payload:
                pattern_table.codes = np.array(
                    payload["pt_codes"], dtype=np.int64
                )
                pattern_table.supports = np.array(
                    payload["pt_supports"], dtype=np.int64
                )
            return int(payload["removed"])

        return self._run_op("filtering", execute, capture, apply)

    def dedup(self, table: EmbeddingTable) -> int:
        """Remove duplicate embeddings (same id set)."""
        def execute():
            with self.platform.resilience.phase("phase:dedup"):
                return dedup_embeddings(self.platform, table)

        return self._run_op(
            "dedup", execute,
            capture=lambda removed: {"removed": int(removed)},
            apply=lambda payload: int(payload["removed"]),
        )

    def output_results(
        self,
        table: EmbeddingTable | None = None,
        pattern_table: PatternTable | None = None,
    ):
        """``output_results(ET, PT)``: materialize what the caller asked for."""
        def execute():
            with self.platform.resilience.phase("phase:output"):
                outputs = []
                if table is not None:
                    outputs.append(table.materialize())
                if pattern_table is not None:
                    outputs.append(pattern_table.as_dict())
                if not outputs:
                    raise ExecutionError("nothing to output")
                return outputs[0] if len(outputs) == 1 else tuple(outputs)

        def capture(result):
            payload = {}
            if table is not None:
                payload["matrix"] = (
                    result[0] if pattern_table is not None else result
                )
            if pattern_table is not None:
                payload["pt_codes"] = pattern_table.codes.copy()
                payload["pt_supports"] = pattern_table.supports.copy()
            return payload

        def apply(payload):
            outputs = []
            if table is not None:
                outputs.append(np.array(payload["matrix"], dtype=np.int64))
            if pattern_table is not None:
                outputs.append({
                    int(c): int(s)
                    for c, s in zip(payload["pt_codes"],
                                    payload["pt_supports"])
                })
            if not outputs:
                raise ExecutionError("nothing to output")
            return outputs[0] if len(outputs) == 1 else tuple(outputs)

        return self._run_op("output-results", execute, capture, apply)

    # -- bookkeeping ------------------------------------------------------------
    @property
    def simulated_seconds(self) -> float:
        return self.platform.simulated_seconds

    @property
    def peak_device_bytes(self) -> int:
        return self.platform.device.peak

    @property
    def peak_host_bytes(self) -> int:
        return self.platform.host_peak

    @property
    def peak_memory_bytes(self) -> int:
        """Fig. 10's quantity: host + device peak."""
        return self.peak_device_bytes + self.peak_host_bytes

    def close(self) -> None:
        """Release all platform resources (idempotent).

        Also drops the engine's own references to what it built up — the
        tables (each points back here through ``owner``, a cycle only the
        next full GC would break) and the checkpoint journal with its
        snapshot — so their arrays are freed now, by refcount.  A table the
        caller still holds (``keep_table=True``) stays readable.
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

    def __enter__(self) -> "Gamma":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _capture_stats(stats: ExtensionStats) -> dict:
    """Journal payload for an extension op (checkpoint-serializable)."""
    return {
        "rows_in": int(stats.rows_in),
        "rows_out": int(stats.rows_out),
        "candidates": int(stats.candidates),
        "groups": int(stats.groups),
        "kernel_ops": float(stats.kernel_ops),
        "list_reads": int(stats.list_reads),
    }


def _apply_stats(payload: dict) -> ExtensionStats:
    return ExtensionStats(
        rows_in=int(payload["rows_in"]),
        rows_out=int(payload["rows_out"]),
        candidates=int(payload["candidates"]),
        groups=int(payload["groups"]),
        kernel_ops=float(payload["kernel_ops"]),
        list_reads=int(payload["list_reads"]),
    )
