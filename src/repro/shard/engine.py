"""Multi-GPU sharded execution: ``ShardedGamma``.

One :class:`~repro.core.framework.Gamma` engine per simulated GPU — each
with its own clock, page buffers, memory pool and access planners — driven
in lockstep through the same Fig. 3 interface the single-GPU engine
exposes, so every algorithm driver in :mod:`repro.algorithms` runs
unmodified on N shards.

Execution model (BSP, per user-visible op):

1. the level-0 frontier is partitioned across shards by a
   :mod:`repro.shard.policy` (each shard seeds the full frontier and
   filters down to its owned units);
2. every op fans out to all shards as a named plain-data command through a
   :class:`~repro.shard.executor.ShardExecutor` — inline and sequential on
   the default ``serial`` backend, or to one worker process per shard on
   the ``process`` backend (true wall-clock overlap);
3. a barrier closes the op: lagging shards charge their idle wait to the
   ``shard_sync`` clock bucket, so each shard's clock equals the makespan
   and per-shard utilization falls out of the buckets;
4. cross-shard reconciliation (duplicate embeddings discovered from seeds
   in different shards, per-shard pattern supports) exchanges data over
   the :class:`~repro.gpusim.interconnect.Interconnect` model — NVLink
   peer copies or PCIe staged through host, per the
   :class:`~repro.gpusim.spec.InterconnectSpec`.

Every charge (exchange, merge kernels, barrier waits) is routed through a
shard's op journal via :meth:`Gamma.custom_op`, so per-shard
checkpoint/resume (``run(checkpoint_dir=..., resume=True)``) composes with
sharding exactly as it does on one GPU — under either backend.

Single-shard runs are bit-identical to unsharded ``Gamma`` execution:
ownership filters, exchanges and barriers all vanish at N=1.  And the
determinism contract holds *across backends*: the same workload produces
byte-identical canonical sharded manifests under ``serial`` and
``process`` (``tests/shard/test_executor_parity.py`` pins this).
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

import numpy as np

from ..core.extension import ExtensionStats
from ..core.framework import Gamma, GammaConfig, _apply_stats
from ..core.aggregation import INSTANCES
from ..core.pattern_table import PatternTable
from ..errors import (
    DeviceOutOfMemory,
    ExecutionError,
    HostOutOfMemory,
    SpillIOError,
    WorkerCrashed,
)
from ..graph.csr import CSRGraph
from ..gpusim.interconnect import Interconnect
from ..gpusim.spec import InterconnectSpec
from ..resilience.faults import FaultPlan
from . import policy as shard_policy
from .executor import EXECUTOR_ENV_VAR, EXECUTORS, make_executor
from .table import ShardedTable

__all__ = ["ShardedCodes", "ShardedGamma", "make_sharded", "EXECUTORS",
           "EXECUTOR_ENV_VAR"]

#: Bytes per exchanged embedding cell (int64 vertex/edge id).
_KEY_CELL_BYTES = 8
#: Bytes per exchanged pattern-table entry (int64 code + int64 support).
_PATTERN_BYTES = 16


class ShardedGamma:
    """The GAMMA framework across N simulated GPUs (drop-in ``Gamma``)."""

    def __init__(
        self,
        graph: CSRGraph,
        config: GammaConfig | None = None,
        num_shards: int = 2,
        policy: str = shard_policy.STATIC,
        interconnect: InterconnectSpec | None = None,
        executor: "str | None" = None,
    ) -> None:
        if num_shards < 1:
            raise ExecutionError("num_shards must be >= 1")
        if policy not in shard_policy.SHARD_POLICIES:
            raise ExecutionError(
                f"shard policy must be one of {shard_policy.SHARD_POLICIES}, "
                f"got {policy!r}"
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
        self._platform = None
        telemetry = False
        if self._executor.parallel:
            # The coordinator gets a stand-in platform (telemetry/trace
            # attach point).  Built *before* the workers so an installed
            # SpanCollector adopts it — its entry snapshots are the
            # all-zero coordinator state, and the worker span trees are
            # grafted under its root at finalize time.
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
            telemetry=telemetry,
        )
        #: Level-0 unit ownership, computed lazily per unit kind
        #: (coordinator copy; workers keep their own identical cache).
        self._assignments: dict = {}
        #: One entry per closed barrier: which shard gated the superstep
        #: and how long each peer waited (read by
        #: :func:`repro.obs.profile.straggler_report`).  Deterministic —
        #: derived from simulated clocks only — so it may feed the
        #: canonical sharded manifest.  Empty at N=1.
        self.barrier_log: List[dict] = []
        #: One entry per cross-shard all-gather (kind + payload bytes).
        self.exchange_log: List[dict] = []
        self._closed = False
        self._telemetry_final = False
        #: Shard index of the most recent fan-out step (degradation
        #: policies in :meth:`run` target the shard that faulted).
        self._active_shard = 0

    # -- plumbing -----------------------------------------------------------
    @property
    def executor(self):
        """The live :class:`~repro.shard.executor.ShardExecutor`."""
        return self._executor

    @property
    def shards(self) -> List[Gamma]:
        """Per-shard engines — serial backend only.

        Worker processes own the engines under ``--executor process``;
        use :meth:`shard_states`, :meth:`install_fault_plan` and
        :meth:`shard_manifest_docs` for backend-neutral access.
        """
        if self._executor.parallel:
            raise ExecutionError(
                "engine.shards is unavailable under the process executor "
                "(per-shard engines live in worker processes); use "
                "shard_states()/install_fault_plan(shard=...) instead"
            )
        return [worker.engine for worker in self._executor.workers]

    @property
    def links(self) -> List[Interconnect]:
        return [worker.link for worker in self._executor.workers]

    @property
    def platform(self):
        """Shard 0's platform (serial) or the coordinator stand-in
        platform (process) — the telemetry/trace attach point."""
        if self._platform is not None:
            return self._platform
        return self._executor.workers[0].engine.platform

    @property
    def _tel(self):
        return self.platform.telemetry

    def _assignment(self, units: str) -> np.ndarray:
        cached = self._assignments.get(units)
        if cached is None:
            cached = shard_policy.assign_units(
                self.graph, self.num_shards, units, self.policy
            )
            self._assignments[units] = cached
        return cached

    def _shard_span(self, index: int):
        tel = self._tel
        if tel.active and self.num_shards > 1:
            return tel.span(f"shard-{index}", kind="shard", shard=index)
        return None

    def _note_active(self, index: int) -> None:
        self._active_shard = index

    def _fanout(self, op: str, args_list: Sequence[dict],
                spans: bool = True) -> list:
        """One command per shard through the executor.

        ``spans=True`` mirrors the old ``_each`` semantics on the serial
        backend: a ``shard-i`` telemetry span brackets each inline
        dispatch and fault attribution tracks the active shard.  The
        process backend ignores both (worker spans are grafted at
        finalize; attribution rides the replies).
        """
        return self._executor.fanout(
            op, args_list,
            span_for=self._shard_span if spans else None,
            on_shard=self._note_active if spans else None,
        )

    def _all(self, args: "dict | None" = None) -> List[dict]:
        return [dict(args or {}) for __ in range(self.num_shards)]

    def _per_table(self, table: ShardedTable, **common) -> List[dict]:
        return [dict(table=handle, **common) for handle in table.handles]

    def _faulted_shard(self) -> int:
        last = getattr(self._executor, "last_faulted", None)
        return self._active_shard if last is None else last

    def _make_table(self, kind: str, name: str) -> ShardedTable:
        handles = self._fanout(
            "new_table", self._all({"kind": kind, "name": name}))
        table = ShardedTable(
            kind, name, self._executor.table_parts(handles), handles=handles)
        table.owner = self
        return table

    def _barrier(self, label: str = "") -> None:
        """Close a BSP super-step: charge lagging shards' idle wait.

        The wait is billed inside each shard's op journal, so a resumed
        replay skips it along with the op that preceded it.  ``label``
        names the op the barrier closes; each barrier appends one
        straggler entry (gating shard, per-shard waits) to
        :attr:`barrier_log`.  Clock totals come from the executor — live
        reads on the serial backend, piggybacked on the last replies on
        the process backend — so no extra round trip happens here.
        """
        if self.num_shards <= 1:
            return
        totals = self._executor.clock_totals()
        target = max(totals)
        gating = totals.index(target)
        entry = {
            "superstep": len(self.barrier_log),
            "op": label or "op",
            "gating_shard": gating,
            "target_seconds": target,
            "waits": [target - total for total in totals],
        }
        self.barrier_log.append(entry)
        args = self._all({"target": target})
        tel = self._tel
        if tel.active:
            with tel.span(f"barrier:{entry['op']}", kind="barrier",
                          superstep=entry["superstep"],
                          gating_shard=gating):
                self._fanout("sync", args)
        else:
            self._fanout("sync", args)

    def _exchange(self, kind: str, payload_bytes: Sequence[int],
                  merge_ops: float) -> None:
        """Charge one all-gather + merge step on every shard's journal.

        ``payload_bytes[i]`` is shard i's outgoing payload; each shard
        additionally receives every peer's payload and runs a merge kernel
        of ``merge_ops`` element-ops over the union.
        """
        if self.num_shards <= 1:
            return
        total = int(sum(payload_bytes))
        self.exchange_log.append({
            "after_superstep": len(self.barrier_log),
            "kind": kind,
            "payload_bytes": [int(b) for b in payload_bytes],
            "total_bytes": total,
        })
        self._fanout("exchange", [
            {"kind": kind, "local": int(payload_bytes[index]),
             "total": total, "peers": self.num_shards - 1,
             "merge_ops": merge_ops}
            for index in range(self.num_shards)
        ])

    # -- table construction --------------------------------------------------
    def new_vertex_table(self, name: str = "v-ET") -> ShardedTable:
        return self._make_table("vertex", name)

    def new_edge_table(self, name: str = "e-ET") -> ShardedTable:
        return self._make_table("edge", name)

    # -- seeding -------------------------------------------------------------
    def _restrict_to_owned(self, table: ShardedTable, units: str) -> None:
        """Drop non-owned level-0 units from each shard's freshly seeded
        table.  At N=1 everything is owned and nothing happens, keeping
        single-shard runs op-for-op identical to unsharded execution."""
        if self.num_shards <= 1:
            return
        self._fanout("restrict_owned", self._per_table(table, units=units))

    def seed_vertices(self, table: ShardedTable, label: int | None = None):
        self._fanout("seed_vertices", self._per_table(table, label=label))
        self._restrict_to_owned(table, shard_policy.VERTEX_UNITS)
        self._barrier("seed-vertices")
        return table

    def seed_edges(self, table: ShardedTable):
        self._fanout("seed_edges", self._per_table(table))
        self._restrict_to_owned(table, shard_policy.EDGE_UNITS)
        self._barrier("seed-edges")
        return table

    def _seed_explicit(self, table: ShardedTable, values: np.ndarray) -> None:
        """Driver-supplied seed (binary-join SM): partition the given unit
        ids by ownership.  Mirrors ``EmbeddingTable.seed`` — not journaled,
        so drivers using it forgo checkpoint/resume (as on one GPU)."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        units = (shard_policy.VERTEX_UNITS if table.kind == "vertex"
                 else shard_policy.EDGE_UNITS)
        assignment = self._assignment(units)
        self._fanout("seed_explicit", [
            {"table": handle,
             "values": values[assignment[values] == index]}
            for index, handle in enumerate(table.handles)
        ], spans=False)
        self._barrier("seed-explicit")

    # -- extension -----------------------------------------------------------
    def _merge_stats(self, stats: List[ExtensionStats]) -> ExtensionStats:
        return ExtensionStats(
            rows_in=sum(s.rows_in for s in stats),
            rows_out=sum(s.rows_out for s in stats),
            candidates=sum(s.candidates for s in stats),
            groups=sum(s.groups for s in stats),
            kernel_ops=sum(s.kernel_ops for s in stats),
            list_reads=sum(s.list_reads for s in stats),
        )

    def _extend(self, table: ShardedTable, variant: str, label: str,
                kwargs: dict) -> ExtensionStats:
        payloads = self._fanout("extend", self._per_table(
            table, variant=variant, kwargs=kwargs))
        self._barrier(label)
        return self._merge_stats([_apply_stats(p) for p in payloads])

    def vertex_extension(self, table: ShardedTable, anchor_cols,
                         label: int | None = None,
                         greater_than_col: int | None = None,
                         greater_than_cols=(), less_than_cols=(),
                         injective: bool = True,
                         count_only: bool = False) -> ExtensionStats:
        return self._extend(table, "vertex", "vertex-extension", dict(
            anchor_cols=anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols, injective=injective,
            count_only=count_only,
        ))

    def vertex_extension_any(self, table: ShardedTable, anchor_cols,
                             label: int | None = None,
                             greater_than_col: int | None = None,
                             greater_than_cols=(), less_than_cols=(),
                             injective: bool = True) -> ExtensionStats:
        return self._extend(table, "vertex-any", "vertex-extension-any", dict(
            anchor_cols=anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols, injective=injective,
        ))

    def edge_extension(self, table: ShardedTable,
                       greater_than_col: "int | None" = None,
                       ) -> ExtensionStats:
        return self._extend(table, "edge", "edge-extension", dict(
            greater_than_col=greater_than_col,
        ))

    # -- dedup (with cross-shard reconciliation) ------------------------------
    def dedup(self, table: ShardedTable) -> int:
        """Remove duplicate embeddings, including duplicates discovered by
        different shards.

        Per shard: local dedup (billed as a sort+compact; see
        :func:`~repro.core.aggregation.dedup_embeddings`).  Then each
        shard all-gathers its surviving set keys; every key is kept only on
        the lowest-indexed shard holding it, and the losers are filtered
        out.  The exchange ships ``rows x depth x 8`` bytes per shard and
        merges with one sort-merge pass over the union.
        """
        removed = sum(self._fanout("dedup", self._per_table(table)))
        if self.num_shards <= 1:
            self._barrier()
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
            # Empty shards yield zero-length key arrays whose void dtype
            # may not promote with the others; drop them before stacking.
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

    # -- aggregation / filtering ----------------------------------------------
    def aggregation(self, table: ShardedTable, pattern_table: PatternTable,
                    support_metric: str = INSTANCES):
        """Aggregate across shards: per-shard canonical grouping, then an
        all-gather of per-shard pattern tables summed into the global one.

        Returns per-shard code arrays (opaque to drivers; accepted back by
        :meth:`filtering`).  ``support_metric='mni'`` is exact only on one
        shard — distinct-vertex minima do not decompose over a sum — and
        raises otherwise (see docs/SHARDING.md).
        """
        if self.num_shards == 1:
            reply = self._executor.call(0, "aggregation", {
                "table": table.handles[0],
                "support_metric": support_metric,
                "pt_codes": pattern_table.codes,
                "pt_supports": pattern_table.supports,
            })
            pattern_table.codes = np.asarray(reply["pt_codes"],
                                             dtype=np.int64)
            pattern_table.supports = np.asarray(reply["pt_supports"],
                                                dtype=np.int64)
            return np.asarray(reply["codes"], dtype=np.int64)
        if support_metric != INSTANCES:
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
        return ShardedCodes([reply["codes"] for reply in replies])

    def _apply_pt_reply(self, pattern_table: PatternTable,
                        reply: dict) -> int:
        if pattern_table is not None and "pt_codes" in reply:
            pattern_table.codes = np.asarray(reply["pt_codes"],
                                             dtype=np.int64)
            pattern_table.supports = np.asarray(reply["pt_supports"],
                                                dtype=np.int64)
        return reply["removed"]

    def filtering(self, table: ShardedTable,
                  keep_mask: np.ndarray | None = None,
                  pattern_table: PatternTable | None = None,
                  row_codes=None, constraint=None) -> int:
        if self.num_shards == 1:
            codes = (row_codes.parts[0]
                     if isinstance(row_codes, ShardedCodes) else row_codes)
            args = {"table": table.handles[0], "keep_mask": keep_mask,
                    "row_codes": codes, "constraint": constraint}
            if pattern_table is not None:
                args["pt_codes"] = pattern_table.codes
                args["pt_supports"] = pattern_table.supports
            reply = self._executor.call(0, "filtering", args)
            return self._apply_pt_reply(pattern_table, reply)
        if keep_mask is not None:
            masks = table.split_rows(np.asarray(keep_mask, dtype=bool))
            replies = self._fanout("filtering", [
                {"table": handle, "keep_mask": masks[index]}
                for index, handle in enumerate(table.handles)
            ])
            self._barrier("filtering")
            return sum(reply["removed"] for reply in replies)
        if pattern_table is None or row_codes is None or constraint is None:
            raise ExecutionError(
                "support filtering needs pattern_table, row_codes "
                "and constraint"
            )
        if isinstance(row_codes, ShardedCodes):
            per_shard = row_codes.parts
        else:
            per_shard = table.split_rows(np.asarray(row_codes, dtype=np.int64))
        replies = self._fanout("filtering", [
            {"table": handle, "row_codes": per_shard[index],
             "constraint": constraint,
             "pt_codes": pattern_table.codes,
             "pt_supports": pattern_table.supports}
            for index, handle in enumerate(table.handles)
        ])
        # Every shard prunes an identical copy of the global table (the
        # kept-code set is mask-input, not mask-output, so pruning
        # commutes); adopt the final arrays once.
        removed = 0
        for reply in replies:
            removed += self._apply_pt_reply(pattern_table, reply)
        self._barrier("filtering")
        return removed

    def output_results(self, table: ShardedTable | None = None,
                       pattern_table: PatternTable | None = None):
        if self.num_shards == 1:
            args = {"table": (table.handles[0] if table is not None
                              else None)}
            if pattern_table is not None:
                args["pt_codes"] = pattern_table.codes
                args["pt_supports"] = pattern_table.supports
            return self._executor.call(0, "output", args)
        outputs = []
        if table is not None:
            mats = self._fanout("output", self._per_table(table))
            mats = [m for m in mats if m.size]
            outputs.append(
                np.concatenate(mats, axis=0) if mats
                else np.empty((0, table.depth), dtype=np.int64)
            )
        if pattern_table is not None:
            outputs.append(pattern_table.as_dict())
        self._barrier("output")
        if not outputs:
            raise ExecutionError("nothing to output")
        return outputs[0] if len(outputs) == 1 else tuple(outputs)

    # -- resilience -----------------------------------------------------------
    def install_fault_plan(self, plan, shard: "int | None" = 0) -> None:
        """Install a fault plan on one shard's platform (all with ``None``).

        Backend-neutral replacement for
        ``engine.shards[i].platform.install_fault_plan(...)``.
        """
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
        """Arm per-shard journaled checkpointing (``<dir>/shard-<i>``);
        ``resume_state`` is another engine's :meth:`snapshot`."""
        loaded = self._fanout("enable_checkpointing", [
            {"checkpoint_dir": (f"{checkpoint_dir}/shard-{index}"
                                if checkpoint_dir is not None else None),
             "resume": resume,
             "resume_state": (resume_state[index]
                              if resume_state is not None else None)}
            for index in range(self.num_shards)
        ], spans=False)
        return all(loaded) and bool(loaded)

    def snapshot(self) -> List[dict]:
        """Each shard's :meth:`Gamma.snapshot`, in shard order."""
        return self._fanout("snapshot", self._all(), spans=False)

    def run(self, task, *, checkpoint_dir: str | None = None,
            resume: bool = False,
            resume_state: "List[dict] | None" = None, policy=None,
            max_retries: int = 8, backoff_seconds: float = 0.05):
        """Sharded :meth:`Gamma.run`: checkpoint/resume per shard plus the
        same degradation retry loop, applied to the shard that faulted.

        ``policy`` accepts a registry name under both backends; a live
        policy *instance* is accepted only on the serial backend (it
        cannot cross a process boundary), where it is applied directly to
        the faulted in-process engine as before.  Under the process
        backend each faulted shard gets its own worker-side instance of
        the named policy, fresh on its first fault of the run.
        """
        fn = task if callable(task) else task.run
        policy_name: "str | None" = None
        policy_obj = None
        if isinstance(policy, str):
            policy_name = policy
        elif policy is not None:
            if self._executor.parallel:
                raise ExecutionError(
                    "the process executor takes degradation policies by "
                    "name (a live policy instance cannot cross the worker "
                    "boundary)"
                )
            policy_obj = policy
        self.enable_checkpointing(checkpoint_dir, resume=resume,
                                  resume_state=resume_state)
        attempts = 0
        fresh_shards: set = set()
        while True:
            try:
                return fn(self)
            except (DeviceOutOfMemory, HostOutOfMemory, SpillIOError) as exc:
                attempts += 1
                if (policy_name is None and policy_obj is None) \
                        or attempts > max_retries:
                    raise
                faulted = self._faulted_shard()
                self._fanout("rewind", self._all(), spans=False)
                if policy_obj is not None:
                    action = policy_obj.apply(
                        self.shards[faulted], exc, attempts)
                    policy_label = policy_obj.name
                else:
                    fresh = faulted not in fresh_shards
                    fresh_shards.add(faulted)
                    reply = self._executor.call(faulted, "apply_policy", {
                        "name": policy_name, "fresh": fresh,
                        "exc": pickle.dumps(exc), "attempt": attempts,
                    })
                    action = reply["action"]
                    policy_label = reply["policy"]
                if action is None:
                    raise
                backoff = backoff_seconds * (2 ** (attempts - 1))
                self._fanout("advance_backoff",
                             self._all({"seconds": backoff}), spans=False)
                event = {
                    "type": "degradation",
                    "policy": policy_label,
                    "attempt": attempts,
                    "error": type(exc).__name__,
                    "shard": faulted,
                }
                event.update(action)
                self._executor.call(faulted, "append_event", {"event": event})

    # -- bookkeeping -----------------------------------------------------------
    def shard_states(self) -> List[dict]:
        """One accounting snapshot per shard (backend-neutral).

        Each dict carries ``clock_total``, ``clock_buckets``, ``counters``,
        ``sync_seconds``, ``simulated_seconds``, the peak-memory figures
        and that shard's raw ``resilience_log`` — everything the merged
        manifest and the tests need without reaching into worker
        processes.
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
        """Makespan: shards barrier after every op, so the slowest shard's
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
        """Fig. 10's quantity on the bottleneck shard (per-GPU peak)."""
        return max(s["peak_memory_bytes"] for s in self.shard_states())

    @property
    def total_peak_memory_bytes(self) -> int:
        """Cluster-wide footprint (sum of per-shard peaks)."""
        return sum(s["peak_memory_bytes"] for s in self.shard_states())

    def shard_utilization(self,
                          states: "List[dict] | None" = None) -> List[float]:
        """Busy fraction per shard: 1 - (sync idle / shard clock)."""
        out = []
        for state in (states if states is not None else self.shard_states()):
            total = state["clock_total"]
            idle = state["sync_seconds"]
            out.append(1.0 - idle / total if total > 0 else 1.0)
        return out

    def shard_manifest_docs(self, collector=None, *, system=None,
                            dataset=None, task=None, config=None
                            ) -> List[dict]:
        """Per-shard manifest documents (:func:`build_manifest` form).

        ``collector`` contributes spans to shard 0's document only,
        mirroring how telemetry attaches.  Under the process backend the
        documents are assembled inside the workers (their platforms hold
        the state) and the coordinator's collector summary — worker trees
        grafted — is attached to document 0 afterwards.
        """
        from ..obs.manifest import _config_dict, attach_collector_summary
        if not self._executor.parallel:
            return self._fanout("manifest_doc", [
                {"system": system, "dataset": dataset, "task": task,
                 "config": config if index == 0 else None,
                 "collector": collector if index == 0 else None}
                for index in range(self.num_shards)
            ], spans=False)
        self.finalize_telemetry()
        docs = self._fanout("manifest_doc", [
            {"system": system, "dataset": dataset, "task": task,
             "config": _config_dict(config) if index == 0 else None}
            for index in range(self.num_shards)
        ], spans=False)
        if collector is not None:
            attach_collector_summary(docs[0], collector)
        return docs

    def finalize_telemetry(self) -> None:
        """Graft worker span trees under the coordinator collector.

        Process backend only (serial telemetry is already live on shard
        0's platform).  Idempotent; called automatically by
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
        for index, records in enumerate(per_shard):
            if records:
                tel.graft_records(records, shard=index)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.finalize_telemetry()
        try:
            self._fanout("close", self._all(), spans=False)
        except (ExecutionError, WorkerCrashed, OSError):
            pass  # crashed/broken workers: shutdown() reaps what's left
        self._executor.shutdown()

    def __enter__(self) -> "ShardedGamma":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedCodes:
    """Per-shard canonical code arrays returned by sharded aggregation.

    Drivers treat aggregation's return value as opaque and hand it back to
    ``filtering``; this wrapper keeps the per-shard split exact while
    still looking like a flat sequence where drivers peek (``len``,
    concatenation via :meth:`flat`).
    """

    __slots__ = ("parts",)

    def __init__(self, parts: List[np.ndarray]) -> None:
        self.parts = [np.asarray(p, dtype=np.int64) for p in parts]

    def __len__(self) -> int:
        return sum(len(p) for p in self.parts)

    def flat(self) -> np.ndarray:
        return (np.concatenate(self.parts) if self.parts
                else np.empty(0, dtype=np.int64))


def make_sharded(graph: CSRGraph, num_shards: int,
                 policy: str = shard_policy.STATIC,
                 config: GammaConfig | None = None,
                 interconnect: InterconnectSpec | None = None,
                 executor: "str | None" = None) -> ShardedGamma:
    """Convenience constructor mirroring the ``SYSTEMS`` factory shape."""
    return ShardedGamma(
        graph, config, num_shards=num_shards, policy=policy,
        interconnect=interconnect, executor=executor,
    )
