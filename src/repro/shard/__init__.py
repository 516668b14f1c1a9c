"""The partitions of a GAMMA engine and the executors that drive them.

:class:`~repro.core.framework.Gamma` partitions the level-0 extension
frontier across N simulated GPUs (one
:class:`~repro.gpusim.platform.GpuPlatform` per partition, N=1 by default),
runs the three-phase pipeline per partition in BSP lockstep, and reconciles
cross-partition state (duplicate embeddings, pattern supports) over a
modelled interconnect.  This package holds the partition
(:class:`~repro.shard.worker.ShardWorker`), the executors, the ownership
policies, the driver-facing table view and the merged manifest.  See
``docs/SHARDING.md``.
"""

from ..core.framework import Gamma
from .executor import (
    EXECUTOR_ENV_VAR,
    EXECUTORS,
    PROCESS_EXECUTOR,
    SERIAL_EXECUTOR,
    SERVE_MIN_CORES,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    default_executor,
    make_executor,
    serve_default_executor,
)
from .manifest import build_sharded_manifest, canonical_manifest_bytes
from .policy import (
    DEGREE,
    SHARD_POLICIES,
    STATIC,
    STEALING,
    assign_units,
)
from .table import RemotePart, ShardedTable

#: ``Gamma``'s functions under the names ``benchmarks/perf/trace.py`` wraps
#: in ``ShardedGamma.__dict__`` (its ``shard.coordinator`` layer).
_TRACED = ("__init__", "new_vertex_table", "new_edge_table", "seed_vertices",
           "seed_edges", "vertex_extension", "vertex_extension_any",
           "edge_extension", "dedup", "aggregation", "filtering",
           "output_results", "shard_states", "close")


class ShardedGamma(Gamma):
    """``Gamma`` under its multi-GPU name; no behaviour of its own.

    Exists for ``benchmarks/perf/trace.py``, which wraps these methods in
    this class's own ``__dict__`` apart from ``Gamma``'s.
    """


for _name in _TRACED:
    setattr(ShardedGamma, _name, Gamma.__dict__[_name])

__all__ = [
    "ShardedGamma",
    "ShardedTable",
    "RemotePart",
    "build_sharded_manifest",
    "canonical_manifest_bytes",
    "assign_units",
    "SHARD_POLICIES",
    "STATIC",
    "DEGREE",
    "STEALING",
    "EXECUTORS",
    "EXECUTOR_ENV_VAR",
    "SERIAL_EXECUTOR",
    "PROCESS_EXECUTOR",
    "ShardExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "default_executor",
    "make_executor",
    "SERVE_MIN_CORES",
    "serve_default_executor",
]
