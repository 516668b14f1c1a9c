"""Shared plumbing for the comparison systems.

Every baseline implements the same Fig. 3 engine protocol as
:class:`repro.core.Gamma`, so the algorithm drivers in
:mod:`repro.algorithms` run unmodified on all of them.  Two families:

* :class:`InCoreEngine` — GPU systems that keep the graph *and* all
  intermediate results in device memory (Pangolin-GPU, GSI).  They are fast
  on small inputs and raise :class:`~repro.errors.DeviceOutOfMemory` on
  large ones — the crashes the paper's Figs. 11/12/14 report.
* :class:`CpuEngine` — host-only systems (Pangolin single-thread,
  Peregrine, GraphMiner).  Work is charged to CPU threads; memory is plain
  host memory.
"""

from __future__ import annotations

import numpy as np

from ..core.aggregation import aggregate_edge_table, dedup_embeddings, level_codes
from ..core.embedding_table import EDGE, VERTEX, EmbeddingTable
from ..core.extension import ExtensionEngine
from ..core.filtering import filter_by_support, filter_rows
from ..core.memory_pool import WriteStrategy
from ..core.pattern_table import PatternTable
from ..core.residence import HostResidence, InCoreResidence
from ..errors import ExecutionError
from ..graph.canonical import MAX_VERTICES, QuickPatternEncoder
from ..graph.csr import CSRGraph
from ..gpusim.platform import GpuPlatform, make_platform


class BaselineEngine:
    """Common engine protocol; see subclasses for system-specific wiring."""

    name = "baseline"
    #: Whether the embedding table is compacted after filtering (§V-A notes
    #: existing frameworks skip compression).
    compaction = False

    def __init__(self, graph: CSRGraph, platform: GpuPlatform) -> None:
        self.graph = graph
        self.platform = platform
        self.encoder = QuickPatternEncoder()
        self._tables: list[EmbeddingTable] = []
        self._closed = False

    def install_fault_plan(self, plan) -> None:
        """Arm deterministic fault injection on the engine's platform."""
        self.platform.install_fault_plan(plan)

    # -- protocol: tables -----------------------------------------------------
    def _make_table(self, kind: str, name: str) -> EmbeddingTable:
        raise NotImplementedError

    def new_vertex_table(self, name: str = "v-ET") -> EmbeddingTable:
        table = self._make_table(VERTEX, name)
        table.owner = self  # lets the Fig. 3 free functions find the engine
        self._tables.append(table)
        return table

    def new_edge_table(self, name: str = "e-ET") -> EmbeddingTable:
        table = self._make_table(EDGE, name)
        table.owner = self
        self._tables.append(table)
        return table

    # -- protocol: primitives ----------------------------------------------------
    def seed_vertices(self, table, label=None):
        return self._engine.seed_vertices(table, label)

    def seed_edges(self, table):
        return self._engine.seed_edges(table)

    def vertex_extension(self, table, anchor_cols, label=None,
                         greater_than_col=None, greater_than_cols=(),
                         less_than_cols=(), injective=True, count_only=False):
        return self._engine.extend_vertices(
            table, anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols,
            injective=injective, count_only=count_only,
        )

    def vertex_extension_any(self, table, anchor_cols, label=None,
                             greater_than_col=None, greater_than_cols=(),
                             less_than_cols=(), injective=True):
        return self._engine.extend_vertices_any(
            table, anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols,
            injective=injective,
        )

    def edge_extension(self, table):
        return self._engine.extend_edges(table)

    def filtering(self, table, keep_mask=None, pattern_table=None,
                  constraint=None):
        if keep_mask is not None:
            return filter_rows(table, keep_mask, compact=self.compaction)
        if pattern_table is None or constraint is None:
            raise ExecutionError(
                "support filtering needs pattern_table and constraint")
        return filter_by_support(
            self.platform, table, pattern_table, constraint,
            compact=self.compaction, cpu=self._is_cpu,
        )

    def dedup(self, table):
        return dedup_embeddings(self.platform, table, cpu=self._is_cpu)

    def aggregation(self, table, pattern_table: PatternTable,
                    support_metric: str = "instances") -> None:
        raise NotImplementedError

    def output_results(self, table=None, pattern_table=None):
        outputs = []
        if table is not None:
            outputs.append(table.materialize())
        if pattern_table is not None:
            outputs.append(pattern_table.as_dict())
        if not outputs:
            raise ExecutionError("nothing to output")
        return outputs[0] if len(outputs) == 1 else tuple(outputs)

    def charge_kernel(self, kernel: str, element_ops: int) -> None:
        """Bill work a driver did on materialized rows."""
        if self._is_cpu:
            self.platform.cpu.work(element_ops)
        else:
            self.platform.kernel.launch(kernel, element_ops=element_ops)

    # -- bookkeeping ----------------------------------------------------------------
    _is_cpu = False

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
        return self.peak_device_bytes + self.peak_host_bytes

    def close(self) -> None:
        if self._closed:
            return
        for table in self._tables:
            table.release()
        self._residence.release()
        self._tables.clear()  # each table points back through ``owner``
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class InCoreEngine(BaselineEngine):
    """GPU baseline: graph + embedding tables + pattern sorts all in device
    memory."""

    #: Subclasses provide the write-conflict strategy.
    def _make_strategy(self) -> WriteStrategy:
        raise NotImplementedError

    #: Whether the engine groups embeddings to avoid redundant intersection
    #: (GAMMA's Optimization 2; in-core baselines lack it).
    pre_merge = False

    def __init__(
        self,
        graph: CSRGraph,
        platform: GpuPlatform | None = None,
        num_warps: int | None = None,
        device_memory_bytes: int | None = None,
    ) -> None:
        if platform is None:
            platform = make_platform(
                num_warps=num_warps, device_memory_bytes=device_memory_bytes
            )
        super().__init__(graph, platform)
        self._residence = InCoreResidence(platform, graph)
        self._engine = ExtensionEngine(
            platform, self._residence, self._make_strategy(),
            pre_merge=self.pre_merge, planner=None,
        )

    def _make_table(self, kind: str, name: str) -> EmbeddingTable:
        return EmbeddingTable(
            self.platform, kind, f"{self.name}:{name}", device_resident=True
        )

    def aggregation(self, table, pattern_table: PatternTable,
                    support_metric: str = "instances") -> None:
        """In-core aggregation: the level's int64 canonical codes must fit
        (twice — sort double buffer) in device memory; big pattern tables
        are the second crash mode of in-core systems."""
        codes, __, mni = level_codes(
            self._residence, table, self.encoder, support_metric == "mni")
        n = len(codes)
        if n == 0:
            return
        scratch_bytes = 2 * 8 * n
        scratch = self.platform.device.allocate(
            scratch_bytes, f"{self.name}:PT-sort")
        self.platform.kernel.launch(
            "aggregate:in-core-sort",
            element_ops=n * (24 + float(np.log2(max(2, n)))),
            device_bytes=scratch_bytes,
        )
        if mni is not None:
            self.platform.kernel.launch(
                "aggregate:mni", element_ops=MAX_VERTICES * n
            )
            counts = mni
        else:
            counts = codes.code_counts()
        self.platform.device.free(scratch)
        pattern_table.merge(codes.distinct, counts)


class CpuEngine(BaselineEngine):
    """CPU baseline: plain host memory, work charged to CPU threads."""

    threads = 1
    #: Per-op cost multiplier modelling the system's algorithmic quality
    #: (pattern-aware plans touch fewer candidates per logical op).
    op_factor = 1.0
    pre_merge = False

    def __init__(
        self, graph: CSRGraph, platform: GpuPlatform | None = None
    ) -> None:
        if platform is None:
            platform = make_platform(cpu_threads=self.threads)
        else:
            platform.cpu.threads = self.threads
        super().__init__(graph, platform)
        self._residence = HostResidence(platform, graph)
        self._engine = ExtensionEngine(
            platform, self._residence, None,
            pre_merge=self.pre_merge, planner=None,
            cpu=True, cpu_op_factor=self.op_factor,
        )

    _is_cpu = True

    def _make_table(self, kind: str, name: str) -> EmbeddingTable:
        return EmbeddingTable(
            self.platform, kind, f"{self.name}:{name}", charged=False
        )

    def aggregation(self, table, pattern_table: PatternTable,
                    support_metric: str = "instances") -> None:
        aggregate_edge_table(
            self.platform, self._residence, table, self.encoder, pattern_table,
            cpu=True, support_metric=support_metric,
        )
