"""GAMMA: the user-facing framework object (paper Fig. 3).

:class:`Gamma` is the one engine.  It binds the framework to one data graph
across ``num_shards`` simulated GPUs — one by default — and its methods
mirror the paper's user-visible interfaces — ``vertex_extension``,
``edge_extension``, ``aggregation``, ``filtering``, ``output_results`` — so
the algorithm drivers in :mod:`repro.algorithms` read like Algorithms 1 and
2 at every GPU count.

The engine is a front over partitions.  Each partition
(:class:`~repro.shard.worker.ShardWorker`) is one simulated GPU: platform,
hybrid graph residency with its access-heat planners, result-buffer memory
pool, extension engines, embedding tables and op journal.  The front hands
every op to a :class:`~repro.shard.executor.ShardExecutor` as one named
plain-data command per partition — inline on the default ``serial``
backend, or to one worker process per partition on the ``process`` backend
— and closes it in BSP lockstep (see docs/SHARDING.md):

1. the level-0 frontier is partitioned by a :mod:`repro.shard.policy`
   (each partition seeds the full frontier and filters down to its owned
   units);
2. a barrier closes each op: lagging partitions charge their idle wait to
   the ``shard_sync`` clock bucket, so each clock equals the makespan;
3. cross-partition reconciliation (duplicate embeddings discovered from
   seeds in different partitions, per-partition pattern supports)
   exchanges data over the :class:`~repro.gpusim.interconnect.Interconnect`
   model.

Every charge is made inside a partition's journaled op, so checkpoint and
resume (``run(checkpoint_dir=..., resume=True)``, one ``<dir>/shard-<i>``
per partition) work the same at every partition count and under either
backend.  With one partition everything owned is everything, and the
ownership filter, barriers and exchanges vanish.

:class:`GammaConfig` exposes every design knob the evaluation ablates:
write strategy (Fig. 17/18), pre-merge (Fig. 17/18), access mode (Fig. 20),
sort method (Fig. 19), compaction (Fig. 10) and warp count (Fig. 16).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..errors import (
    DeviceOutOfMemory,
    ExecutionError,
    HostOutOfMemory,
    SpillIOError,
    WorkerCrashed,
)
from ..graph.canonical import canonical_entry, representative
from ..graph.csr import CSRGraph
from ..gpusim.platform import GpuPlatform
from ..gpusim.spec import CostModel, InterconnectSpec
from .access_planner import ACCESS_MODES, HYBRID
from .aggregation import INSTANCES, check_support_metric
from .extension import ExtensionStats
from .memory_pool import DEFAULT_BLOCK_BYTES, DYNAMIC, STRATEGIES
from .pattern_table import PatternTable
from .sort import DEFAULT_P_SIZE, MULTI_MERGE, SORT_METHODS

#: Bytes per exchanged embedding cell (int64 vertex/edge id).
_KEY_CELL_BYTES = 8
#: Bytes per exchanged pattern-table entry (int64 code + int64 support).
_PATTERN_BYTES = 16


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




def _refuse_flat_layout(checkpoint_dir: str) -> None:
    """Partition i checkpoints to ``<dir>/shard-<i>``; a directory holding
    only a flat ``<dir>/checkpoint.bin`` was written by an older layout
    and would otherwise restart from scratch without a word."""
    from ..resilience.checkpoint import CheckpointManager
    flat = os.path.join(checkpoint_dir, CheckpointManager.FILENAME)
    if os.path.exists(flat) and not os.path.exists(
            os.path.join(checkpoint_dir, "shard-0")):
        raise ExecutionError(
            f"{flat} is a one-GPU checkpoint in the old flat layout; "
            f"partitions now checkpoint to <dir>/shard-<i>/"
            f"{CheckpointManager.FILENAME}, so it cannot be resumed — "
            f"rerun without resume"
        )


class Gamma:
    """The GAMMA framework bound to one data graph on ``num_shards`` GPUs."""

    def __init__(
        self,
        graph: CSRGraph,
        config: GammaConfig | None = None,
        platform: GpuPlatform | None = None,
        num_shards: int = 1,
        policy: str = "static",
        interconnect: InterconnectSpec | None = None,
        executor=None,
    ) -> None:
        # Imported here: repro.shard builds on this module.
        from ..shard.executor import make_executor
        from ..shard.policy import SHARD_POLICIES

        if num_shards < 1:
            raise ExecutionError("num_shards must be >= 1")
        if policy not in SHARD_POLICIES:
            raise ExecutionError(
                f"shard policy must be one of {SHARD_POLICIES}, got {policy!r}"
            )
        self.graph = graph
        self.config = config if config is not None else GammaConfig()
        self.num_shards = num_shards
        self.policy = policy
        self.interconnect_spec = (
            interconnect if interconnect is not None else InterconnectSpec()
        )
        #: Resolution order: explicit arg > REPRO_SHARD_EXECUTOR > serial.
        self._executor = make_executor(executor)
        self.executor_name = self._executor.name
        if platform is not None and (num_shards != 1 or self._executor.parallel):
            raise ExecutionError(
                "platform= is partition 0's own platform: it needs one "
                "partition on the serial executor"
            )
        self._platform = None
        telemetry = False
        if self._executor.parallel:
            # The front gets a stand-in platform (telemetry/trace attach
            # point).  Built *before* the workers so an installed
            # SpanCollector adopts it — its entry snapshots are the
            # all-zero front state, and the worker span trees are grafted
            # under its root at finalize time.
            from ..gpusim.platform import make_platform
            self._platform = make_platform(
                num_warps=self.config.num_warps,
                device_memory_bytes=self.config.device_memory_bytes,
                cost=self.config.cost,
            )
            telemetry = bool(self._platform.telemetry.active)
        self._executor.start(
            graph=graph, config=self.config, num_shards=num_shards,
            policy=policy, interconnect=self.interconnect_spec,
            telemetry=telemetry, platform=platform,
        )
        #: One entry per closed barrier: which partition gated the
        #: superstep and how long each peer waited (read by
        #: :func:`repro.obs.profile.straggler_report`).  Deterministic —
        #: derived from simulated clocks only.  Empty at N=1.
        self.barrier_log: List[dict] = []
        #: One entry per cross-partition all-gather (kind + payload bytes).
        self.exchange_log: List[dict] = []
        self._closed = False
        self._telemetry_final = False
        #: Partition of the most recent fan-out step (degradation policies
        #: in :meth:`run` target the partition that faulted).
        self._active_shard = 0

    # -- plumbing -----------------------------------------------------------
    @property
    def executor(self):
        """The live :class:`~repro.shard.executor.ShardExecutor`."""
        return self._executor

    @property
    def shards(self) -> list:
        """The partitions (:class:`~repro.shard.worker.ShardWorker`) —
        serial backend only.

        Worker processes own them under ``--executor process``; use
        :meth:`shard_states`, :meth:`install_fault_plan` and
        :meth:`shard_manifest_docs` for backend-neutral access.
        """
        if self._executor.parallel:
            raise ExecutionError(
                "engine.shards is unavailable under the process executor "
                "(partitions live in worker processes); use "
                "shard_states()/install_fault_plan(shard=...) instead"
            )
        return list(self._executor.workers)

    @property
    def platform(self):
        """Partition 0's platform (serial) or the front's stand-in
        platform (process) — the telemetry/trace attach point."""
        if self._platform is not None:
            return self._platform
        return self._executor.workers[0].platform

    @property
    def _tel(self):
        return self.platform.telemetry

    def _assignment(self, units: str) -> np.ndarray:
        from ..shard.policy import assign_units
        return assign_units(self.graph, self.num_shards, units, self.policy)

    def _shard_span(self, index: int):
        tel = self._tel
        if tel.active and self.num_shards > 1:
            return tel.span(f"shard-{index}", kind="shard", shard=index)
        return None

    def _note_active(self, index: int) -> None:
        self._active_shard = index

    def _fanout(self, op: str, args_list: Sequence[dict],
                spans: bool = True) -> list:
        """One command per partition through the executor.

        ``spans=True``: on the serial backend a ``shard-i`` telemetry span
        brackets each inline dispatch (N > 1) and fault attribution tracks
        the active partition.  The process backend ignores both (worker
        spans are grafted at finalize; attribution rides the replies).
        """
        return self._executor.fanout(
            op, args_list,
            span_for=self._shard_span if spans else None,
            on_shard=self._note_active if spans else None,
        )

    def _all(self, args: "dict | None" = None) -> List[dict]:
        return [dict(args or {}) for __ in range(self.num_shards)]

    def _per_table(self, table, **common) -> List[dict]:
        return [dict(table=handle, **common) for handle in table.handles]

    def _faulted_shard(self) -> int:
        last = getattr(self._executor, "last_faulted", None)
        return self._active_shard if last is None else last

    def _make_table(self, kind: str, name: str):
        from ..shard.table import ShardedTable
        handles = self._fanout(
            "new_table", self._all({"kind": kind, "name": name}))
        table = ShardedTable(
            kind, name, self._executor.table_parts(handles), handles=handles)
        table.owner = self  # lets the Fig. 3 free functions find the engine
        return table

    def _barrier(self, label: str = "") -> None:
        """Close a BSP super-step: charge lagging partitions' idle wait.

        The wait is billed inside each partition's op journal, so a resumed
        replay skips it along with the op that preceded it.  ``label``
        names the op the barrier closes; each barrier appends one
        straggler entry (gating partition, per-partition waits) to
        :attr:`barrier_log`.  Clock totals come from the executor — live
        reads on the serial backend, piggybacked on the last replies on
        the process backend — so no extra round trip happens here.
        """
        if self.num_shards == 1:
            return
        totals = self._executor.clock_totals()
        target = max(totals)
        superstep = len(self.barrier_log)
        label = label or "op"
        args = self._all({"target": target})
        tel = self._tel
        if tel.active:
            with tel.span(f"barrier:{label}", kind="barrier",
                          superstep=superstep,
                          gating_shard=totals.index(target)):
                replies = self._fanout("sync", args)
        else:
            replies = self._fanout("sync", args)
        # Journaled replies: a replayed barrier logs what the live one saw.
        target = replies[0]["target"]
        clocks = [reply["clock"] for reply in replies]
        self.barrier_log.append({
            "superstep": superstep,
            "op": label,
            "gating_shard": clocks.index(max(clocks)),
            "target_seconds": target,
            "waits": [target - clock for clock in clocks],
        })

    def _exchange(self, kind: str, payload_bytes: Sequence[int],
                  merge_ops: float) -> None:
        """Charge one all-gather + merge step on every partition's journal.

        ``payload_bytes[i]`` is partition i's outgoing payload; each one
        additionally receives every peer's payload and runs a merge kernel
        of ``merge_ops`` element-ops over the union.  The log entry is
        built from the journaled replies, as :meth:`_barrier`'s is.
        """
        if self.num_shards == 1:
            return
        total = int(sum(payload_bytes))
        replies = self._fanout("exchange", [
            {"kind": kind, "local": int(payload_bytes[index]),
             "total": total, "peers": self.num_shards - 1,
             "merge_ops": merge_ops}
            for index in range(self.num_shards)
        ])
        self.exchange_log.append({
            "after_superstep": len(self.barrier_log),
            "kind": kind,
            "payload_bytes": [reply["local"] for reply in replies],
            "total_bytes": replies[0]["total"],
        })

    # -- table construction (Fig. 3 data structures) -----------------------
    def new_vertex_table(self, name: str = "v-ET"):
        return self._make_table("vertex", name)

    def new_edge_table(self, name: str = "e-ET"):
        return self._make_table("edge", name)

    # -- seeding -------------------------------------------------------------
    def _restrict_to_owned(self, table, units: str) -> None:
        """Drop non-owned level-0 units from each partition's freshly
        seeded table.  One partition owns everything: nothing to drop."""
        if self.num_shards == 1:
            return
        self._fanout("restrict_owned", self._per_table(table, units=units))

    def seed_vertices(self, table, label: int | None = None):
        self._fanout("seed_vertices", self._per_table(table, label=label))
        self._restrict_to_owned(table, "vertex")
        self._barrier("seed-vertices")
        return table

    def seed_edges(self, table):
        self._fanout("seed_edges", self._per_table(table))
        self._restrict_to_owned(table, "edge")
        self._barrier("seed-edges")
        return table

    def _seed_explicit(self, table, values: np.ndarray) -> None:
        """Driver-supplied seed (binary-join SM): partition the given unit
        ids by ownership.  Mirrors ``EmbeddingTable.seed``, journaled like
        every op."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        assignment = self._assignment(table.kind)
        self._fanout("seed_explicit", [
            {"table": handle,
             "values": values[assignment[values] == index]}
            for index, handle in enumerate(table.handles)
        ], spans=False)
        self._barrier("seed-explicit")

    def _release_table(self, table) -> None:
        """Free every partition's part of ``table`` (a journaled op; after
        :meth:`close` the parts were already freed)."""
        if self._closed:
            for part in table.parts:
                part.release()
            return
        self._fanout("release_table", self._per_table(table), spans=False)

    def _split_rows(self, table, values: np.ndarray) -> List[np.ndarray]:
        """``table.split_rows(values)``, unless the op they feed is answered
        from the replay journal: the restored table already holds that op's
        result, so there is nothing to split (and nothing is read)."""
        if self.num_shards > 1 and any(
                self._fanout("replaying", self._all(), spans=False)):
            return [values[:0]] * self.num_shards
        return table.split_rows(values)

    # -- the five user-visible interfaces (Fig. 3) ---------------------------
    def _extend(self, table, variant: str, label: str,
                kwargs: dict) -> ExtensionStats:
        replies = self._fanout("extend", self._per_table(
            table, variant=variant, kwargs=kwargs))
        self._barrier(label)
        return ExtensionStats(**{key: sum(reply[key] for reply in replies)
                                 for key in replies[0]})

    def vertex_extension(self, table, anchor_cols,
                         label: int | None = None,
                         greater_than_col: int | None = None,
                         greater_than_cols=(), less_than_cols=(),
                         injective: bool = True,
                         count_only: bool = False) -> ExtensionStats:
        """``Vertex_Extension(ET, G_d)`` with extension-time pruning;
        ``count_only`` keeps the level as its length alone (a counting
        query's last level: same bill, no rows)."""
        return self._extend(table, "vertex", "vertex-extension", dict(
            anchor_cols=anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols, injective=injective,
            count_only=count_only,
        ))

    def vertex_extension_any(self, table, anchor_cols,
                             label: int | None = None,
                             greater_than_col: int | None = None,
                             greater_than_cols=(), less_than_cols=(),
                             injective: bool = True) -> ExtensionStats:
        """Union-neighborhood vertex extension (Definition 3.1's literal
        ``N_v(M)``), used by connected-subgraph enumeration."""
        return self._extend(table, "vertex-any", "vertex-extension-any", dict(
            anchor_cols=anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols, injective=injective,
        ))

    def edge_extension(self, table,
                       greater_than_col: "int | None" = None,
                       ) -> ExtensionStats:
        """``Edge_Extension(ET, G_d)``; ``greater_than_col`` applies the
        planner's ordered-growth restriction (candidate edge id strictly
        above the id in that column)."""
        return self._extend(table, "edge", "edge-extension", dict(
            greater_than_col=greater_than_col,
        ))

    def dedup(self, table) -> int:
        """Remove duplicate embeddings (same id set), including duplicates
        discovered by different partitions.

        Per partition: local dedup (billed as a sort+compact; see
        :func:`~repro.core.aggregation.dedup_embeddings`).  Then each
        partition all-gathers its surviving set keys; every key is kept
        only on the lowest-indexed partition holding it, and the losers
        are filtered out.  The exchange ships ``rows x depth x 8`` bytes
        per partition and merges with one sort-merge pass over the union.
        """
        removed = sum(self._fanout("dedup", self._per_table(table)))
        if self.num_shards == 1:
            return removed
        self._barrier("dedup-local")

        keys = self._fanout("set_keys", self._per_table(table), spans=False)
        counts = [len(k) for k in keys]
        depth = table.depth
        payload = [n * depth * _KEY_CELL_BYTES for n in counts]
        total_rows = int(sum(counts))
        merge_ops = total_rows * float(np.log2(max(2, total_rows)))
        self._exchange("dedup", payload, merge_ops)

        keep = np.zeros(total_rows, dtype=bool)
        if total_rows:
            # Empty partitions yield zero-length key arrays whose void
            # dtype may not promote with the others; drop them first.
            flat = np.concatenate([k for k in keys if len(k)])
            __, first = np.unique(flat, return_index=True)
            keep[first] = True
        offsets = np.cumsum([0] + counts)
        replies = self._fanout("filtering", [
            {"table": handle,
             "keep_mask": keep[offsets[index]:offsets[index + 1]]}
            for index, handle in enumerate(table.handles)
        ])
        removed += sum(reply["removed"] for reply in replies)
        self._barrier("dedup-reconcile")
        return removed

    def aggregation(self, table, pattern_table: PatternTable,
                    support_metric: str = INSTANCES):
        """``Aggregation(ET, m_f)`` with the canonical-label map function:
        per-partition canonical grouping, then an all-gather of the
        per-partition pattern tables summed into ``pattern_table``, the
        output.  Each partition's level keeps its codes for
        :meth:`filtering`.
        ``support_metric='mni'`` is exact only on one partition —
        distinct-vertex minima do not decompose over a sum — and raises
        otherwise (see docs/SHARDING.md).
        """
        check_support_metric(support_metric)
        if support_metric != INSTANCES and self.num_shards > 1:
            raise ExecutionError(
                "sharded aggregation supports support_metric='instances' "
                "only; MNI minima do not decompose across shards"
            )
        empty = np.empty(0, dtype=np.int64)
        replies = self._fanout("aggregation", self._per_table(
            table, support_metric=support_metric,
            pt_codes=empty, pt_supports=empty))
        self._barrier("aggregation-local")
        payload = [len(r["pt_codes"]) * _PATTERN_BYTES for r in replies]
        total_patterns = sum(len(r["pt_codes"]) for r in replies)
        self._exchange("pattern-table", payload, float(total_patterns))
        for reply in replies:
            if len(reply["pt_codes"]):
                pattern_table.merge(reply["pt_codes"], reply["pt_supports"])
        self._barrier("aggregation-merge")

    def filtering(self, table,
                  keep_mask: np.ndarray | None = None,
                  pattern_table: PatternTable | None = None,
                  constraint=None) -> int:
        """``Filtering(ET, PT, constraint)``: either a per-row mask or a
        min-support constraint over a pattern table, which each partition
        applies to the codes its level's aggregation left."""
        if keep_mask is not None:
            masks = self._split_rows(table, np.asarray(keep_mask, dtype=bool))
            replies = self._fanout("filtering", [
                {"table": handle, "keep_mask": masks[index]}
                for index, handle in enumerate(table.handles)
            ])
            self._barrier("filtering")
            return sum(reply["removed"] for reply in replies)
        if pattern_table is None or constraint is None:
            raise ExecutionError(
                "support filtering needs pattern_table and constraint")
        replies = self._fanout("filtering", self._per_table(
            table, constraint=constraint, pt_codes=pattern_table.codes,
            pt_supports=pattern_table.supports))
        # Every partition prunes an identical copy of the global table (the
        # kept-code set is mask-input, not mask-output, so pruning
        # commutes); adopt the final arrays once.
        pattern_table.codes = np.asarray(replies[-1]["pt_codes"], dtype=np.int64)
        pattern_table.supports = np.asarray(replies[-1]["pt_supports"],
                                            dtype=np.int64)
        self._barrier("filtering")
        return sum(reply["removed"] for reply in replies)

    def output_results(self, table=None,
                       pattern_table: PatternTable | None = None):
        """``output_results(ET, PT)``: materialize what the caller asked
        for (embeddings in partition-major row order)."""
        outputs = []
        if table is not None:
            mats = self._fanout("output", self._per_table(table))
            mats = [m for m in mats if m.size]
            if len(mats) > 1:
                outputs.append(np.concatenate(mats, axis=0))
            else:
                outputs.append(mats[0] if mats
                               else np.empty((0, table.depth), dtype=np.int64))
        if pattern_table is not None:
            outputs.append(pattern_table.as_dict())
        self._barrier("output")
        if not outputs:
            raise ExecutionError("nothing to output")
        return outputs[0] if len(outputs) == 1 else tuple(outputs)

    def charge_kernel(self, kernel: str, element_ops: int) -> None:
        """Bill a kernel a driver ran on materialized rows to partition 0,
        inside its op journal (a resumed replay skips it)."""
        self._fanout("charge", [{"kernel": kernel, "element_ops": element_ops}])

    # -- resilience: checkpoints, resume, degradation (repro.resilience) ------
    def install_fault_plan(self, plan, shard: "int | None" = 0) -> None:
        """Install a fault plan on one partition's platform (all with
        ``None``)."""
        from ..resilience.faults import FaultPlan
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_dict(plan)
        targets = (range(self.num_shards) if shard is None else (shard,))
        for index in targets:
            self._executor.call(index, "install_fault_plan",
                                {"plan": plan.to_dict()})

    def enable_checkpointing(self, checkpoint_dir: str | None = None,
                             resume: bool = False,
                             resume_state: "List[dict] | None" = None,
                             ) -> bool:
        """Arm journaled-replay checkpointing on every partition.

        Every completed op leaves a snapshot (:meth:`snapshot`).  With a
        ``checkpoint_dir`` each partition also writes its own through to
        ``<dir>/shard-<i>/checkpoint.bin``, and ``resume=True`` loads
        them when present.  Loaded files, or a ``resume_state`` another
        engine's :meth:`snapshot` handed over in memory, arm replay, so
        re-running the same driver skips the completed ops.  A snapshot
        resumes only on an engine with the partition count (and policy)
        that took it; anything else raises :class:`ExecutionError`.
        Returns ``True`` when snapshots were installed.
        """
        if resume_state is not None and len(resume_state) != self.num_shards:
            raise ExecutionError(
                f"resume_state holds snapshots of {len(resume_state)} "
                f"partition(s) but this engine has {self.num_shards}; "
                f"resume needs the same partition count"
            )
        if resume and checkpoint_dir is not None and resume_state is None:
            _refuse_flat_layout(checkpoint_dir)
        loaded = self._fanout("enable_checkpointing", [
            {"checkpoint_dir": (f"{checkpoint_dir}/shard-{index}"
                                if checkpoint_dir is not None else None),
             "resume": resume,
             "resume_state": (resume_state[index]
                              if resume_state is not None else None)}
            for index in range(self.num_shards)
        ], spans=False)
        return all(loaded)

    def snapshot(self) -> "List[dict | None]":
        """Each partition's state after its last completed op, in order.

        ``None`` entries before checkpointing is armed.  Table columns are
        held by reference, not copied (serial backend); hand the list to a
        fresh engine's ``run(task, resume_state=...)`` to continue there.
        """
        return self._fanout("snapshot", self._all(), spans=False)

    def run(self, task, *, checkpoint_dir: str | None = None,
            resume: bool = False,
            resume_state: "List[dict] | None" = None,
            policy: "str | None" = None,
            max_retries: int = 8, backoff_seconds: float = 0.05):
        """Run a workload with checkpoint/resume and graceful degradation.

        ``task`` is a callable taking this engine (e.g. ``lambda g:
        count_kcliques(g, 4)``) or an object with a ``run(engine)`` method.
        Checkpointing is always armed; ``checkpoint_dir``/``resume`` add
        cross-process persistence and ``resume_state`` continues from a
        snapshot handed over in memory (see :meth:`enable_checkpointing`).

        ``policy`` names a degradation policy (see
        :data:`repro.resilience.DEGRADATION_POLICIES`).  When a memory
        fault or spill I/O error escapes the task, every partition rewinds to its last per-op snapshot, the
        policy adjusts the partition that faulted (halve extension chunks,
        demote unified pages, engage the disk tier), an exponential
        recovery backoff is charged to every clock, the event is recorded
        in that partition's ``resilience_log`` (and thus the run manifest),
        and the task retries — at most ``max_retries`` times.  Without a
        policy, or when the policy gives up, the fault propagates.  Each
        faulted partition gets its own instance of the named policy (in its
        worker, under the process backend), fresh on its first fault of
        the run.

        Drivers must route all *charged* work through the engine's op
        methods: during a resumed replay only op results are re-applied, so
        charged reads done directly between ops would be double-billed.
        """
        fn = task if callable(task) else task.run
        self.enable_checkpointing(checkpoint_dir, resume=resume,
                                  resume_state=resume_state)
        attempts = 0
        fresh_shards: set = set()
        while True:
            try:
                return fn(self)
            except (DeviceOutOfMemory, HostOutOfMemory, SpillIOError) as exc:
                attempts += 1
                if policy is None or attempts > max_retries:
                    raise
                faulted = self._faulted_shard()
                # Rewind before asking the policy: its adjustments (planner
                # modes, page sets, spill attachments) must not be
                # clobbered by the snapshot restore.
                self._fanout("rewind", self._all(), spans=False)
                fresh = faulted not in fresh_shards
                fresh_shards.add(faulted)
                reply = self._executor.call(faulted, "apply_policy", {
                    "name": policy, "fresh": fresh,
                    "exc": pickle.dumps(exc), "attempt": attempts,
                })
                action = reply["action"]
                if action is None:
                    raise
                backoff = backoff_seconds * (2 ** (attempts - 1))
                self._fanout("advance_backoff",
                             self._all({"seconds": backoff}), spans=False)
                event = {
                    "type": "degradation",
                    "policy": reply["policy"],
                    "attempt": attempts,
                    "error": type(exc).__name__,
                    "shard": faulted,
                }
                event.update(action)
                self._executor.call(faulted, "append_event", {"event": event})

    # -- bookkeeping ------------------------------------------------------------
    def learn_codes(self, codes) -> None:
        """Give this process's canonical table a representative of each of
        ``codes`` it lacks, so the catalog names them here: a partition on
        the process executor canonicalized them in its worker's own table.
        One fan-out asks every worker for what it holds, and each answer is
        inserted through ``canonical_entry``.  Unbilled."""
        missing = [int(code) for code in codes if representative(code) is None]
        if not missing or not self._executor.parallel:
            return
        for reply in self._fanout(
                "representatives", self._all({"codes": missing}), spans=False):
            for code, (edges, labels) in reply.items():
                if representative(code) is None:
                    canonical_entry(edges, labels)

    def shard_states(self) -> List[dict]:
        """One accounting snapshot per partition (backend-neutral).

        Each dict carries ``clock_total``, ``clock_buckets``, ``counters``,
        ``sync_seconds``, ``simulated_seconds``, the peak-memory figures
        and that partition's raw ``resilience_log`` — everything the merged
        manifest and the tests need without reaching into worker processes.
        """
        return self._fanout("state", self._all(), spans=False)

    @property
    def resilience_log(self) -> list:
        merged = []
        for index, state in enumerate(self.shard_states()):
            for event in state["resilience_log"]:
                tagged = dict(event)
                tagged.setdefault("shard", index)
                merged.append(tagged)
        return merged

    @property
    def simulated_seconds(self) -> float:
        """Makespan: partitions barrier after every op, so the slowest
        clock is the wall the workload observes."""
        return max(self._executor.clock_totals())

    @property
    def peak_device_bytes(self) -> int:
        return max(s["peak_device_bytes"] for s in self.shard_states())

    @property
    def peak_host_bytes(self) -> int:
        return max(s["peak_host_bytes"] for s in self.shard_states())

    @property
    def peak_memory_bytes(self) -> int:
        """Fig. 10's quantity (host + device peak) on the bottleneck
        partition (per-GPU peak)."""
        return max(s["peak_memory_bytes"] for s in self.shard_states())

    @property
    def total_peak_memory_bytes(self) -> int:
        """Cluster-wide footprint (sum of per-partition peaks)."""
        return sum(s["peak_memory_bytes"] for s in self.shard_states())

    def shard_utilization(self,
                          states: "List[dict] | None" = None) -> List[float]:
        """Busy fraction per partition: 1 - (sync idle / clock)."""
        out = []
        for state in (states if states is not None else self.shard_states()):
            total = state["clock_total"]
            idle = state["sync_seconds"]
            out.append(1.0 - idle / total if total > 0 else 1.0)
        return out

    def shard_manifest_docs(self, collector=None, *, system=None,
                            dataset=None, task=None, config=None,
                            wall_seconds=None) -> List[dict]:
        """Per-partition manifest documents (:func:`build_manifest` form).

        ``collector`` contributes spans to partition 0's document only,
        mirroring how telemetry attaches.  Under the process backend the
        documents are assembled inside the workers (their platforms hold
        the state) and the front's collector summary — worker trees
        grafted — is attached to document 0 afterwards.
        """
        from ..obs.manifest import _config_dict, attach_collector_summary
        parallel = self._executor.parallel
        if parallel:
            self.finalize_telemetry()
        docs = self._fanout("manifest_doc", [
            {"system": system, "dataset": dataset, "task": task,
             "config": (_config_dict(config) if parallel else config)
             if index == 0 else None,
             "collector": collector if index == 0 and not parallel else None,
             "wall_seconds": wall_seconds if index == 0 else None}
            for index in range(self.num_shards)
        ], spans=False)
        if parallel and collector is not None:
            attach_collector_summary(docs[0], collector)
        return docs

    def finalize_telemetry(self) -> None:
        """Graft worker span trees and metric samples under the front's
        collector.

        Process backend only (serial telemetry is already live on
        partition 0's platform).  Idempotent; called automatically by
        :meth:`shard_manifest_docs` and :meth:`close`.
        """
        if self._telemetry_final or not self._executor.parallel:
            return
        self._telemetry_final = True
        tel = self._tel
        if not getattr(tel, "active", False):
            return
        if not hasattr(tel, "graft_records"):
            return
        try:
            per_shard = self._fanout("collect_spans", self._all(),
                                     spans=False)
        except (ExecutionError, WorkerCrashed):
            return  # executor already broken/closed; nothing to graft
        for index, reply in enumerate(per_shard):
            if reply:
                records, samples = reply
                tel.graft_records(records, shard=index, samples=samples)

    def close(self) -> None:
        """Release every partition's resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.finalize_telemetry()
        try:
            self._fanout("close", self._all(), spans=False)
        except (ExecutionError, WorkerCrashed, OSError):
            pass  # crashed/broken workers: shutdown() reaps what's left
        self._executor.shutdown()

    def __enter__(self) -> "Gamma":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
