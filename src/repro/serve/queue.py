"""Admission queue: per-tenant quotas, priority scheduling, fair shares.

The queue is the single synchronization point of the serve layer.  It
owns every :class:`QueryState` (queued, running, or finished), admits
submissions against per-tenant quotas, and hands runnable queries to
scheduler workers under a fairness bound:

* **Admission** — a tenant must be registered (or auto-registered with
  the default quota); exceeding its ``max_pending`` backlog raises
  :class:`~repro.errors.AdmissionError` (HTTP 429).
* **Priority** — among eligible queries, higher ``priority`` wins;
  ties break toward the tenant with fewer queries in flight, then
  least-recently-scheduled tenant, then submission order.  A preempted
  query keeps its original submission sequence, so it resumes ahead of
  its tenant's later arrivals at equal priority (across tenants the
  least-recently-scheduled tenant still wins the tie).
* **Fairness** — with ``slots`` concurrent execution slots and ``A``
  active tenants (pending or in-flight work), each tenant's fair share
  is ``slots // A``; a tenant is never scheduled beyond ``share + 1``
  queries in flight (nor beyond its own ``max_inflight``).  Every
  acquire/release appends an accounting event to :attr:`trace`, which
  the fairness property suite replays.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AdmissionError
from .query import QuerySpec
from .stream import ResultStream

__all__ = ["DEFAULT_QUOTA", "QueryQueue", "QueryState", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits."""

    #: Hard cap on this tenant's concurrently executing queries.
    max_inflight: int = 2
    #: Hard cap on this tenant's queued-but-not-running backlog.
    max_pending: int = 64


DEFAULT_QUOTA = TenantQuota()

#: Lifecycle states a query moves through.
QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"
COMPLETED = "completed"
FAILED = "failed"


class QueryState:
    """Mutable per-query bookkeeping (owned by the queue, one per submit)."""

    def __init__(self, query_id: int, spec: QuerySpec, seq: int) -> None:
        self.id = query_id
        self.spec = spec
        self.seq = seq
        self.status = QUEUED
        self.stream = ResultStream(query_id)
        #: Where a query on worker processes keeps its durable journal.
        self.checkpoint_dir: "str | None" = None
        #: The engine snapshot a preempted in-process query resumes from
        #: (held only while the query is suspended).
        self.resume_state: "dict | list | None" = None
        #: Stage counter for the *current* driver invocation (reset per
        #: attempt; replayed stages re-count up to ``stages_emitted``).
        self.stage_calls = 0
        #: High-water mark of stages actually streamed (dedups replay).
        self.stages_emitted = 0
        self.preemptions = 0
        self.resumes = 0
        self.crashes = 0
        self.result: "dict | None" = None
        self.billing: "dict | None" = None
        self.error: "str | None" = None
        self.submitted_wall = time.time()
        self.submitted_mono = time.monotonic()
        self.finished_wall: "float | None" = None
        self.finished_mono: "float | None" = None
        self.queue_seconds = 0.0
        self.exec_seconds = 0.0
        self.executor_used: "str | None" = None
        self._wait_since: "float | None" = self.submitted_mono

    @property
    def done(self) -> bool:
        return self.status in (COMPLETED, FAILED)

    @property
    def latency_seconds(self) -> "float | None":
        if self.finished_mono is None:
            return None
        return self.finished_mono - self.submitted_mono

    def snapshot(self) -> dict:
        """JSON-safe status document (the HTTP ``GET /v1/query`` body)."""
        return {
            "query": self.id,
            "tenant": self.spec.tenant,
            "family": self.spec.family,
            "priority": self.spec.priority,
            "status": self.status,
            "stages": self.stages_emitted,
            "preemptions": self.preemptions,
            "resumes": self.resumes,
            "crashes": self.crashes,
            "result": self.result,
            "error": self.error,
        }


class QueryQueue:
    """Thread-safe priority queue with tenant quotas and fair shares."""

    def __init__(self, slots: int = 2, auto_register: bool = True,
                 default_quota: "TenantQuota | None" = None) -> None:
        self.slots = max(1, int(slots))
        self.auto_register = auto_register
        self.default_quota = default_quota or DEFAULT_QUOTA
        self._cond = threading.Condition()
        self._quotas: Dict[str, TenantQuota] = {}
        self._pending: List[QueryState] = []
        self._inflight: Dict[str, int] = {}
        self._last_pick: Dict[str, int] = {}
        self._states: Dict[int, QueryState] = {}
        self._next_id = 1
        self._tick = 0
        #: Accounting events ({"event", "query", "tenant", "share",
        #: "inflight", ...}) the fairness property suite replays.
        self.trace: List[dict] = []

    # -- tenants -------------------------------------------------------------
    def register_tenant(self, name: str,
                        max_inflight: "int | None" = None,
                        max_pending: "int | None" = None) -> TenantQuota:
        quota = TenantQuota(
            max_inflight=(max_inflight if max_inflight is not None
                          else self.default_quota.max_inflight),
            max_pending=(max_pending if max_pending is not None
                         else self.default_quota.max_pending),
        )
        with self._cond:
            self._quotas[name] = quota
            self._inflight.setdefault(name, 0)
        return quota

    def tenants(self) -> dict:
        with self._cond:
            return {
                name: {
                    "max_inflight": quota.max_inflight,
                    "max_pending": quota.max_pending,
                    "inflight": self._inflight.get(name, 0),
                    "pending": sum(1 for state in self._pending
                                   if state.spec.tenant == name),
                }
                for name, quota in sorted(self._quotas.items())
            }

    # -- admission -----------------------------------------------------------
    def submit(self, spec: QuerySpec) -> QueryState:
        spec.validate()
        tenant = spec.tenant
        with self._cond:
            quota = self._quotas.get(tenant)
            if quota is None:
                if not self.auto_register:
                    raise AdmissionError(
                        f"unknown tenant {tenant!r} (auto-registration "
                        "is disabled)", tenant=tenant)
                quota = self.default_quota
                self._quotas[tenant] = quota
                self._inflight.setdefault(tenant, 0)
            backlog = sum(1 for state in self._pending
                          if state.spec.tenant == tenant)
            if backlog >= quota.max_pending:
                raise AdmissionError(
                    f"tenant {tenant!r} backlog full "
                    f"({backlog}/{quota.max_pending} pending)",
                    tenant=tenant)
            state = QueryState(self._next_id, spec, seq=self._next_id)
            self._next_id += 1
            self._states[state.id] = state
            self._pending.append(state)
            state.stream.emit("queued", tenant=tenant,
                              family=spec.family, priority=spec.priority)
            self._cond.notify_all()
            return state

    def get(self, query_id: int) -> "QueryState | None":
        with self._cond:
            return self._states.get(query_id)

    # -- fairness ------------------------------------------------------------
    def _active_tenants(self) -> List[str]:
        active = {state.spec.tenant for state in self._pending}
        active.update(name for name, count in self._inflight.items()
                      if count > 0)
        return sorted(active)

    def _share(self, active_count: int) -> int:
        return self.slots // max(1, active_count)

    def _eligible(self, state: QueryState, share: int,
                  released: "str | None" = None) -> bool:
        tenant = state.spec.tenant
        inflight = self._inflight.get(tenant, 0)
        if released == tenant:
            inflight -= 1
        quota = self._quotas.get(tenant, self.default_quota)
        return inflight < min(quota.max_inflight, share + 1)

    def _pick(self, released: "str | None" = None) -> "QueryState | None":
        if not self._pending:
            return None
        active = self._active_tenants()
        share = self._share(len(active))
        eligible = [state for state in self._pending
                    if self._eligible(state, share, released)]
        if not eligible:
            return None
        eligible.sort(key=lambda state: (
            -state.spec.priority,
            self._inflight.get(state.spec.tenant, 0),
            self._last_pick.get(state.spec.tenant, 0),
            state.seq,
        ))
        return eligible[0]

    # -- scheduling ----------------------------------------------------------
    def acquire(self, block: bool = False,
                timeout: "float | None" = None) -> "QueryState | None":
        """Pop the next runnable query (or None when nothing is eligible)."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._cond:
            while True:
                state = self._pick()
                if state is not None:
                    tenant = state.spec.tenant
                    active = self._active_tenants()
                    self._pending.remove(state)
                    self._inflight[tenant] = \
                        self._inflight.get(tenant, 0) + 1
                    self._tick += 1
                    self._last_pick[tenant] = self._tick
                    self.trace.append({
                        "event": "acquire", "query": state.id,
                        "tenant": tenant,
                        "share": self._share(len(active)),
                        "active": active,
                        "inflight": dict(self._inflight),
                    })
                    return state
                if not block:
                    return None
                wait = None
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        return None
                self._cond.wait(wait)

    def release(self, state: QueryState) -> None:
        """A query left execution for good (completed or failed)."""
        with self._cond:
            tenant = state.spec.tenant
            self._inflight[tenant] = max(
                0, self._inflight.get(tenant, 0) - 1)
            self.trace.append({
                "event": "release", "query": state.id, "tenant": tenant,
                "inflight": dict(self._inflight),
            })
            self._cond.notify_all()

    def requeue(self, state: QueryState) -> None:
        """A preempted/crash-retried query goes back, keeping its seq."""
        with self._cond:
            tenant = state.spec.tenant
            self._inflight[tenant] = max(
                0, self._inflight.get(tenant, 0) - 1)
            state.status = PREEMPTED
            state._wait_since = time.monotonic()
            self._pending.append(state)
            self.trace.append({
                "event": "requeue", "query": state.id, "tenant": tenant,
                "inflight": dict(self._inflight),
            })
            self._cond.notify_all()

    def preemptor_waiting(self, victim: QueryState) -> bool:
        """Is a strictly-higher-priority query runnable if ``victim`` yields?

        Eligibility is evaluated *as if* the victim had released its slot,
        so a same-tenant high-priority query at the fairness bound still
        counts — requeueing the victim is exactly what frees its budget.
        """
        with self._cond:
            if not self._pending:
                return False
            active = self._active_tenants()
            share = self._share(len(active))
            victim_tenant = victim.spec.tenant
            return any(
                state.spec.priority > victim.spec.priority
                and self._eligible(state, share, released=victim_tenant)
                for state in self._pending
            )

    # -- reporting -----------------------------------------------------------
    def pending_count(self, tenant: "str | None" = None) -> int:
        with self._cond:
            if tenant is None:
                return len(self._pending)
            return sum(1 for state in self._pending
                       if state.spec.tenant == tenant)

    def inflight_count(self, tenant: "str | None" = None) -> int:
        with self._cond:
            if tenant is None:
                return sum(self._inflight.values())
            return self._inflight.get(tenant, 0)

    def states(self) -> List[QueryState]:
        with self._cond:
            return [self._states[qid] for qid in sorted(self._states)]

    def stats(self) -> dict:
        with self._cond:
            states = list(self._states.values())
            return {
                "slots": self.slots,
                "submitted": len(states),
                "pending": len(self._pending),
                "inflight": sum(self._inflight.values()),
                "completed": sum(1 for s in states
                                 if s.status == COMPLETED),
                "failed": sum(1 for s in states if s.status == FAILED),
                "preemptions": sum(s.preemptions for s in states),
                "crashes": sum(s.crashes for s in states),
                "tenants": len(self._quotas),
            }
