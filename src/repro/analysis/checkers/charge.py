"""charge-accounting: device-visible graph reads must be charged.

The simulated clocks (paper §IV) only move when adjacency traffic routes
through the charging APIs — a region's ``gather``/``gather_ranges``/
``read_range``/``charge_ranges`` or a residence accessor (``adjacency_of``,
``labels_of``, ...).  An engine or algorithm module that indexes
``CSRGraph.offsets``/``.neighbors``/``.edge_ids`` (or a region's backing
array) directly gets the right *answer* while silently undercounting the
simulated time, which corrupts every figure downstream.

This checker flags, inside the engine scope (``repro/core/``,
``repro/algorithms/``, ``repro/baselines/``):

* attribute reads of the CSR payload arrays (``offsets``, ``neighbors``,
  ``edge_ids``, ``edge_src``, ``edge_dst``, ``labels``,
  ``adjacency_keys``) and of region
  internals (``array``, ``_array``) — except when the attribute is
  immediately called (``pattern.neighbors(v)`` is a method, not the array);
* calls to the uncharged host-side view methods ``neighbors_of``,
  ``incident_edges_of`` and ``edge_endpoints``.

Intentional host-side reads (e.g. deriving a read multiset that is then
charged explicitly) carry a line waiver with the reason:
``# gammalint: allow[charge] -- <why the traffic is still charged>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..framework import Checker, LintContext, SourceModule, in_engine_scope, register

#: CSR payload / region-internal attributes whose raw reads bypass charging.
ARRAY_ATTRS = frozenset({
    "offsets", "neighbors", "edge_ids", "edge_src", "edge_dst", "labels",
    "adjacency_keys", "array", "_array",
})

#: Uncharged host-side view methods of CSRGraph.
VIEW_METHODS = frozenset({"neighbors_of", "incident_edges_of", "edge_endpoints"})


@register
class ChargeAccountingChecker(Checker):
    name = "charge-accounting"
    codes = ("charge",)
    description = (
        "raw CSR/region reads in engine modules must route through the "
        "charging APIs (gather/gather_ranges/charge_ranges or a residence "
        "accessor)"
    )

    def check(self, module: SourceModule, context: LintContext) -> Iterator[Diagnostic]:
        if not in_engine_scope(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            parent = module.parent(node)
            is_call_target = isinstance(parent, ast.Call) and parent.func is node
            if node.attr in VIEW_METHODS and is_call_target:
                yield self.diagnostic(
                    module, node, "charge",
                    f"`.{node.attr}()` is an uncharged host-side view; use "
                    "the residence accessor (adjacency_of/incident_edges_of/"
                    "endpoints_of) or charge the read explicitly",
                )
            elif (
                node.attr in ARRAY_ATTRS
                and not is_call_target
                and isinstance(node.ctx, ast.Load)
            ):
                yield self.diagnostic(
                    module, node, "charge",
                    f"raw read of `.{node.attr}` bypasses the charging "
                    "APIs; go through a region (gather/gather_ranges/"
                    "charge_ranges) or a residence accessor so the "
                    "simulated clock sees the traffic",
                )
