"""GAMMA core: the paper's primary contribution.

Embedding tables (§III-A/§V-A), the extension–aggregation–filtering
primitives (§III-B), the three optimizations of §V-B (dynamic allocation,
pre-merge grouping, out-of-core multi-merge sort), the self-adaptive
access-heat planner (§IV) and the :class:`~repro.core.framework.Gamma`
façade that wires them to the simulated platform.
"""

from .access_planner import (
    ACCESS_MODES,
    HYBRID,
    UNIFIED_ONLY,
    ZEROCOPY_ONLY,
    AccessHeatPlanner,
)
from .aggregation import (
    INSTANCES,
    MNI,
    SUPPORT_METRICS,
    aggregate_edge_table,
    dedup_embeddings,
    embedding_set_keys,
    mni_supports,
)
from .embedding_table import EDGE, VERTEX, Column, EmbeddingTable
from .extension import ExtensionEngine, ExtensionStats
from .filtering import MinSupport, QueryConstraint, filter_by_support, filter_rows
from .framework import Gamma, GammaConfig
from .memory_pool import (
    DEFAULT_BLOCK_BYTES,
    DYNAMIC,
    PREALLOC,
    STRATEGIES,
    TWO_PASS,
    DynamicAllocStrategy,
    MemoryPool,
    PreallocStrategy,
    TwoPassStrategy,
    WriteStrategy,
    make_write_strategy,
)
from .pattern_table import PatternTable
from .primitives import (
    Constraint,
    aggregation,
    edge_extension,
    filtering,
    output_results,
    vertex_extension,
)
from .residence import GammaResidence, GraphResidence, HostResidence, InCoreResidence
from .spill import DISK_IO, SpillPolicy, SpillStore
from .sort import (
    CPU_SORT,
    DEFAULT_P_SIZE,
    MULTI_MERGE,
    NAIVE_MERGE,
    SORT_METHODS,
    XTR2SORT,
    merge_runs,
    out_of_core_sort,
    segment_runs,
    sort_and_count,
)

__all__ = [
    "ACCESS_MODES",
    "HYBRID",
    "UNIFIED_ONLY",
    "ZEROCOPY_ONLY",
    "AccessHeatPlanner",
    "INSTANCES",
    "MNI",
    "SUPPORT_METRICS",
    "aggregate_edge_table",
    "dedup_embeddings",
    "embedding_set_keys",
    "mni_supports",
    "EDGE",
    "VERTEX",
    "Column",
    "EmbeddingTable",
    "ExtensionEngine",
    "ExtensionStats",
    "MinSupport",
    "QueryConstraint",
    "filter_by_support",
    "filter_rows",
    "Gamma",
    "GammaConfig",
    "DEFAULT_BLOCK_BYTES",
    "DYNAMIC",
    "PREALLOC",
    "STRATEGIES",
    "TWO_PASS",
    "DynamicAllocStrategy",
    "MemoryPool",
    "PreallocStrategy",
    "TwoPassStrategy",
    "WriteStrategy",
    "make_write_strategy",
    "PatternTable",
    "Constraint",
    "aggregation",
    "edge_extension",
    "filtering",
    "output_results",
    "vertex_extension",
    "GammaResidence",
    "GraphResidence",
    "HostResidence",
    "InCoreResidence",
    "CPU_SORT",
    "DEFAULT_P_SIZE",
    "MULTI_MERGE",
    "NAIVE_MERGE",
    "SORT_METHODS",
    "XTR2SORT",
    "DISK_IO",
    "SpillPolicy",
    "SpillStore",
    "merge_runs",
    "out_of_core_sort",
    "segment_runs",
    "sort_and_count",
]
