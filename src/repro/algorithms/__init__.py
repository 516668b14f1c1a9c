"""GPM algorithms built on the framework primitives (paper §III-C).

Every driver is engine-agnostic: it accepts any object exposing the Fig. 3
interface — :class:`repro.core.Gamma` or any baseline engine — so the same
algorithm code runs on every system the evaluation compares.
:mod:`repro.algorithms.query` names a task once (:class:`QuerySpec`) for
the CLI and the serve tier, and maps it onto its plan and its driver.
"""

from .fpm import FPMResult, frequent_pattern_mining
from .graphlets import GraphletResult, graphlet_census
from .kclique import KCliqueResult, count_kcliques
from .motif import MotifResult, motif_count
from .query import (
    FAMILIES,
    QuerySpec,
    fold_partials,
    resolve_query_plan,
    result_payload,
    run_query,
)
from .subgraph_matching import SMResult, match_pattern, match_pattern_binary
from .triangle import TriangleResult, triangle_count

__all__ = [
    "FAMILIES",
    "QuerySpec",
    "fold_partials",
    "resolve_query_plan",
    "result_payload",
    "run_query",
    "FPMResult",
    "frequent_pattern_mining",
    "GraphletResult",
    "graphlet_census",
    "KCliqueResult",
    "count_kcliques",
    "MotifResult",
    "motif_count",
    "SMResult",
    "match_pattern",
    "match_pattern_binary",
    "TriangleResult",
    "triangle_count",
]
