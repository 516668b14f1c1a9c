"""GSI baseline (paper ref [10]).

GSI is a state-of-the-art *task-specific* subgraph matching system on GPU.
The traits the paper calls out, all modelled:

* **prealloc-combine** — instead of Pangolin's joining-twice, GSI
  estimates each row's maximum result count and preallocates worst-case
  space; extension then runs once.  "The overestimation often causes
  significant space waste" (§V-B) — on large graphs the preallocation
  itself exceeds device memory, which is how GSI crashes in Fig. 11.
* **in-core** — graph and tables in device memory.
* **GPU-friendly joins** — GSI's PCSR layout speeds the join phase; since
  extension already runs single-pass here, no extra factor is applied.
* compaction after filtering (GSI does compact candidate sets).
"""

from __future__ import annotations

from ..core.memory_pool import PreallocStrategy, WriteStrategy
from .base import InCoreEngine


class GSI(InCoreEngine):
    """In-core GPU subgraph matcher with worst-case preallocation."""

    name = "gsi"
    compaction = True
    pre_merge = False

    def _make_strategy(self) -> WriteStrategy:
        return PreallocStrategy(self.platform, tag="gsi:prealloc")

    def vertex_extension(self, table, anchor_cols, label=None,
                         greater_than_col=None, greater_than_cols=(),
                         less_than_cols=(), injective=True, count_only=False):
        stats = super().vertex_extension(
            table, anchor_cols, label=label,
            greater_than_col=greater_than_col,
            greater_than_cols=greater_than_cols,
            less_than_cols=less_than_cols,
            injective=injective, count_only=count_only,
        )
        # GSI's join phase probes its PCSR vertex-signature tables for
        # every candidate (encoding + hash probes) — the per-candidate
        # bookkeeping newer systems avoid.
        if stats.candidates:
            self.platform.kernel.launch(
                "gsi:signature-probe",
                element_ops=2 * stats.candidates,
                device_bytes=32 * stats.candidates,
            )
        return stats
