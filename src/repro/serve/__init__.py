"""Mining service mode: multi-tenant query serving for the GAMMA engine.

The serve layer turns the batch engine into a long-lived service:

* :class:`QuerySpec` / :class:`QueryQueue` — plain-data queries
  (:mod:`repro.algorithms.query`, re-exported here) admitted under
  per-tenant quotas with priority scheduling and fair shares;
* :class:`Scheduler` — level-by-level execution over per-query
  ``Gamma`` engines, with checkpoint-journal preemption,
  crash containment, warm process-pool reuse, and a shared plan cache;
  the engines run in forked slot processes (:mod:`repro.serve.slot`);
* :class:`ResultStream` — per-query JSON-record streams (chunked
  JSON-lines over HTTP);
* :class:`MiningService` / :class:`ServeClient` — the stdlib
  ``http.server`` front end and its urllib client;
* :func:`billing_record` — per-query telemetry-derived billing/QoS
  records.

See ``docs/SERVING.md`` for the admission/quota/preemption model and the
wire formats.
"""

from ..algorithms.query import FAMILIES, QuerySpec, fold_partials, result_payload, run_query
from .queue import DEFAULT_QUOTA, QueryQueue, QueryState, TenantQuota
from .records import BILLING_SCHEMA, billing_record, write_billing_record
from .scheduler import Scheduler, ServeConfig
from .service import MiningService, ServeClient
from .stream import ResultStream

__all__ = [
    "BILLING_SCHEMA",
    "DEFAULT_QUOTA",
    "FAMILIES",
    "MiningService",
    "QueryQueue",
    "QuerySpec",
    "QueryState",
    "ResultStream",
    "Scheduler",
    "ServeClient",
    "ServeConfig",
    "TenantQuota",
    "billing_record",
    "fold_partials",
    "result_payload",
    "run_query",
    "write_billing_record",
]
