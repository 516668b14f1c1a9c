"""Exception hierarchy for the GAMMA reproduction.

Every error raised by this package derives from :class:`GammaError` so callers
can catch framework failures without masking programming errors.  The
out-of-memory errors double as the paper's "crash" cells: in-core baselines
(Pangolin-GPU, GSI) abort with :class:`DeviceOutOfMemory` on graphs whose
intermediate results exceed device memory, which the benchmark harness reports
the same way Figs. 11/12/14 report crashed runs.
"""

from __future__ import annotations

import pickle
import traceback


class GammaError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DeviceOutOfMemory(GammaError):
    """Raised when a device-memory allocation exceeds remaining capacity.

    Mirrors a CUDA ``cudaErrorMemoryAllocation``: in-core engines die with
    this, while GAMMA avoids it by keeping large structures in host memory.
    """

    def __init__(self, requested: int, available: int, tag: str = "") -> None:
        self.requested = requested
        self.available = available
        self.tag = tag
        suffix = f" for {tag!r}" if tag else ""
        super().__init__(
            f"device OOM{suffix}: requested {requested} bytes, "
            f"{available} available"
        )

    def __reduce__(self):
        # Default Exception pickling replays ``args`` (the formatted
        # message) into __init__; rebuild from the real fields instead so
        # faults survive the worker->coordinator pipe.
        return (type(self), (self.requested, self.available, self.tag))


class MemoryPoolExhausted(DeviceOutOfMemory):
    """Raised when the result-buffer block pool cannot serve a block.

    A subclass of :class:`DeviceOutOfMemory` because callers handle it the
    same way (the pool *is* device memory); kept distinct so fault plans and
    degradation policies can tell pool pressure from allocator pressure.
    """


class HostOutOfMemory(GammaError):
    """Raised when registered host regions exceed the simulated host budget."""

    def __init__(self, requested: int, available: int, tag: str = "") -> None:
        self.requested = requested
        self.available = available
        self.tag = tag
        suffix = f" for {tag!r}" if tag else ""
        super().__init__(
            f"host OOM{suffix}: requested {requested} bytes, "
            f"{available} available"
        )

    def __reduce__(self):
        return (type(self), (self.requested, self.available, self.tag))


class SpillIOError(GammaError):
    """Raised when a spill-tier read or write fails (simulated disk fault)."""

    def __init__(self, site: str, message: str = "") -> None:
        self.site = site
        self.message = message
        detail = message or f"simulated I/O failure at {site!r}"
        super().__init__(detail)

    def __reduce__(self):
        return (type(self), (self.site, self.message))


class WorkerCrashed(GammaError):
    """Raised when a shard worker process dies mid-command.

    Covers both injected crashes (the ``worker_crash`` fault kind) and real
    kills (``SIGKILL``, OOM-killer).  Unlike the out-of-memory family this is
    *not* retried in place by the degradation ladder: the worker's in-memory
    state is gone, so recovery means resuming a fresh engine from the last
    per-shard checkpoint.
    """

    def __init__(self, message: str, shard: "int | None" = None,
                 exit_code: "int | None" = None) -> None:
        self.shard = shard
        self.exit_code = exit_code
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "",
                             self.shard, self.exit_code))


class QueryPreempted(GammaError):
    """Raised between levels to suspend a running query.

    The serve scheduler's level hook raises this when a higher-priority
    query is waiting.  It deliberately does *not* belong to the
    out-of-memory family, so :meth:`Gamma.run`'s degradation ladder lets
    it propagate: the scheduler catches it, the op-journal checkpoint
    already holds every completed level, and a later resume replays the
    journal bit-identically before continuing.
    """

    def __init__(self, query_id: "int | None" = None,
                 level: "int | None" = None) -> None:
        self.query_id = query_id
        self.level = level
        where = f" at level {level}" if level is not None else ""
        who = f"query {query_id}" if query_id is not None else "query"
        super().__init__(f"{who} preempted{where}")

    def __reduce__(self):
        return (type(self), (self.query_id, self.level))


class AdmissionError(GammaError):
    """Raised when the serve queue rejects a query at admission time.

    Covers unknown tenants (when auto-registration is disabled) and
    per-tenant ``max_pending`` overflows.  Maps to HTTP 429/403 in the
    service layer.
    """

    def __init__(self, message: str, tenant: "str | None" = None) -> None:
        self.tenant = tenant
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.tenant))


class InvalidGraphError(GammaError):
    """Raised for malformed graph inputs (bad CSR, negative IDs, ...)."""


class InvalidPatternError(GammaError):
    """Raised for malformed query patterns (disconnected, empty, ...)."""


class ExecutionError(GammaError):
    """Raised when a primitive is invoked in an invalid engine state."""


def pickled_error(exc: Exception, where: str) -> bytes:
    """``exc`` pickled for the process that sent the failed command: a
    :class:`GammaError` as itself, any other exception — a defect or a bad
    argument, not a failed query — as an :class:`ExecutionError` holding
    its traceback, which does not survive pickling (``where`` names the
    process it came from)."""
    if not isinstance(exc, GammaError):
        exc = ExecutionError(f"{where} failed:\n" + "".join(
            traceback.format_exception(exc)))
    try:
        return pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - an unpicklable error still reports
        return pickle.dumps(ExecutionError(f"{type(exc).__name__}: {exc}"))
