"""Query specifications and the family dispatch the serve scheduler runs.

A :class:`QuerySpec` is the plain-data description of one mining request:
the task family plus its parameters, the dataset, the execution shape
(GPU count, shard policy, executor backend), and the tenancy fields the
admission queue cares about (tenant, priority).  Specs are frozen and
JSON-round-trippable — they arrive over HTTP, cross no process boundary
with live handles, and appear verbatim in billing records.

:func:`run_query` dispatches a spec to the matching algorithm driver with
the scheduler's ``level_hook`` threaded through, so per-level partials
stream out of exactly the same op sequence a batch run executes — the
streamed-vs-batch parity suite leans on that being *structural*, not a
re-implementation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ExecutionError

__all__ = [
    "FAMILIES",
    "QuerySpec",
    "fold_partials",
    "result_payload",
    "run_query",
]

#: Task families the service admits (CLI task-name spelling).
FAMILIES = ("kcl", "sm", "motifs", "fpm")

#: Accepted aliases -> canonical family name.
_FAMILY_ALIASES = {
    "kclique": "kcl",
    "clique": "kcl",
    "motif": "motifs",
    "subgraph": "sm",
    "match": "sm",
}

_CRASH_POLICIES = ("retry", "fail")


@dataclass(frozen=True)
class QuerySpec:
    """One admissible mining query (plain data, JSON-round-trippable)."""

    family: str = "kcl"
    tenant: str = "default"
    priority: int = 0
    dataset: str = "ER"
    #: Simulated GPUs: the ``Gamma`` engine's partition count.
    gpus: int = 1
    shard_policy: str = "static"
    #: Shard backend name; ``None`` defers to the scheduler's default
    #: (:func:`repro.shard.serve_default_executor`).
    executor: "str | None" = None
    plan: str = "baseline"
    # family parameters (unused ones keep their defaults)
    k: int = 4
    query: int = 1
    symmetry_breaking: bool = False
    num_edges: int = 2
    iterations: int = 2
    min_support: int = 10
    support_metric: str = "instances"
    #: Degradation policy name applied under memory pressure
    #: (``halve-chunk`` / ``demote-pages`` / ``spill``; ``None`` lets
    #: memory faults fail the query).
    degradation: "str | None" = None
    #: What the scheduler does when a worker dies mid-query.
    on_crash: str = "retry"
    #: Deterministic fault injection (a ``FaultPlan.to_dict()`` document);
    #: the crash-matrix suite drives worker deaths through this.
    fault_plan: "dict | None" = None
    #: Shard the fault plan installs on (multi-GPU queries).
    fault_shard: int = 0

    def validate(self) -> "QuerySpec":
        if self.family not in FAMILIES:
            raise ExecutionError(
                f"unknown query family {self.family!r}; "
                f"expected one of {FAMILIES}")
        if self.gpus < 1:
            raise ExecutionError("gpus must be >= 1")
        if self.on_crash not in _CRASH_POLICIES:
            raise ExecutionError(
                f"on_crash must be one of {_CRASH_POLICIES}, "
                f"got {self.on_crash!r}")
        if self.family == "kcl" and self.k < 1:
            raise ExecutionError("k must be >= 1")
        if self.family == "fpm" and self.iterations < 1:
            raise ExecutionError("iterations must be >= 1")
        if self.family == "motifs" and self.num_edges < 1:
            raise ExecutionError("num_edges must be >= 1")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "QuerySpec":
        if not isinstance(doc, dict):
            raise ExecutionError("query spec must be a JSON object")
        known = {field.name for field in dataclasses.fields(cls)}
        fields = {}
        for key, value in doc.items():
            if key not in known:
                raise ExecutionError(f"unknown query field {key!r}")
            fields[key] = value
        family = fields.get("family", "kcl")
        fields["family"] = _FAMILY_ALIASES.get(family, family)
        return cls(**fields).validate()

    def params(self) -> dict:
        """The family-relevant parameters only (billing-record view)."""
        if self.family == "kcl":
            return {"k": self.k}
        if self.family == "sm":
            return {"query": self.query,
                    "symmetry_breaking": self.symmetry_breaking}
        if self.family == "motifs":
            return {"num_edges": self.num_edges}
        return {"iterations": self.iterations,
                "min_support": self.min_support,
                "support_metric": self.support_metric}


def run_query(engine, spec: QuerySpec, level_hook=None, plan=None):
    """Run one query's driver on ``engine``; returns the result dataclass.

    ``plan`` overrides ``spec.plan`` (the scheduler pre-resolves ``auto``
    plans through its shared :class:`~repro.plan.PlanCache`).
    """
    from ..algorithms import (
        count_kcliques,
        frequent_pattern_mining,
        match_pattern,
        motif_count,
    )
    from ..graph import sm_query

    plan = plan if plan is not None else spec.plan
    if spec.family == "kcl":
        return count_kcliques(engine, spec.k, plan=plan,
                              level_hook=level_hook)
    if spec.family == "sm":
        return match_pattern(engine, sm_query(spec.query), plan=plan,
                             symmetry_breaking=spec.symmetry_breaking,
                             level_hook=level_hook)
    if spec.family == "motifs":
        return motif_count(engine, spec.num_edges, plan=plan,
                           level_hook=level_hook)
    if spec.family == "fpm":
        return frequent_pattern_mining(
            engine, spec.iterations, spec.min_support,
            support_metric=spec.support_metric, plan=plan,
            level_hook=level_hook)
    raise ExecutionError(f"unknown query family {spec.family!r}")


def result_payload(spec: QuerySpec, result) -> dict:
    """JSON-safe result document (pattern-code keys stringified/sorted)."""
    payload = dataclasses.asdict(result)
    for key in ("histogram", "patterns"):
        if key in payload:
            payload[key] = {str(code): count for code, count
                            in sorted(payload[key].items())}
    return payload


def fold_partials(spec: QuerySpec, partials: list) -> dict:
    """Reduce a query's streamed partials to the batch-result fields.

    The parity contract: for every completed query, the folded partials
    must equal the corresponding fields of a batch run's result — the
    stream is a prefix view of the same computation, not an estimate.
    """
    if not partials:
        return {}
    last = partials[-1]
    if spec.family == "kcl":
        return {"cliques": last.get("embeddings")}
    if spec.family == "sm":
        return {"embeddings": last.get("embeddings")}
    if spec.family == "motifs":
        aggregates = [p for p in partials if p.get("stage") == "aggregate"]
        if not aggregates:
            return {}
        return {"histogram": aggregates[-1].get("histogram"),
                "total_instances": aggregates[-1].get("total_instances")}
    filters = [p for p in partials if p.get("stage") == "filter"]
    if not filters:
        return {}
    return {"patterns": filters[-1].get("patterns"),
            "frequent_per_level": [p.get("frequent") for p in filters]}
