"""The simulated CPU–GPU heterogeneous platform.

:class:`GpuPlatform` bundles everything one experiment needs: the device
spec and cost model, the shared clock and counters, the PCIe bus, the
device-memory allocator, host-memory budget tracking, a kernel launcher and
a CPU executor.  Engines (GAMMA and all baselines) take a platform at
construction, so comparative benchmarks run each system on an identical,
freshly reset platform.
"""

from __future__ import annotations

import numpy as np

from ..errors import HostOutOfMemory
from ..obs import spans as obs_spans
from ..resilience import faults as res_faults
from . import clock as clk
from .clock import SimClock
from .device import DeviceMemory
from .hybrid import HybridRegion
from .kernel import CpuExecutor, KernelLauncher
from .pcie import PcieBus
from .regions import DeviceResidentRegion
from .spec import DEFAULT_COST, DEFAULT_SPEC, CostModel, DeviceSpec
from .stats import Counters
from .unified import UnifiedRegion
from .zerocopy import ZeroCopyRegion


class GpuPlatform:
    """One simulated heterogeneous machine (host + device + bus)."""

    def __init__(
        self,
        spec: DeviceSpec | None = None,
        cost: CostModel | None = None,
        num_warps: int | None = None,
        cpu_threads: int | None = None,
    ) -> None:
        self.spec = spec if spec is not None else DEFAULT_SPEC
        self.cost = cost if cost is not None else DEFAULT_COST
        self.clock = SimClock()
        self.counters = Counters()
        self.pcie = PcieBus(self.spec, self.cost, self.clock, self.counters)
        self.device = DeviceMemory(self.spec.device_memory_bytes)
        self.kernel = KernelLauncher(
            self.spec, self.cost, self.clock, self.counters, num_warps
        )
        self.cpu = CpuExecutor(
            self.cost,
            self.clock,
            self.counters,
            cpu_threads if cpu_threads is not None else self.cost.cpu_threads,
        )
        self._host_used = 0
        self._host_peak = 0
        self._host_registered_once = False
        #: Telemetry sink consulted by instrumented hot paths; the no-op
        #: default keeps uninstrumented runs at a single attribute check.
        self.telemetry = obs_spans.NULL_TELEMETRY
        #: Fault-injection sink (same null-object discipline as telemetry).
        self.resilience = res_faults.NULL_RESILIENCE
        #: Resilience events (injected faults, degradations, checkpoints)
        #: surfaced in run manifests.
        self.resilience_log: list = []
        env_plan = res_faults.plan_from_env()
        if env_plan is not None:
            self.install_fault_plan(env_plan)
        # A SpanCollector installed via repro.obs.install() binds itself to
        # the first platform constructed (CLI/bench entry points rely on
        # this — the platform is created deep inside system factories).
        obs_spans.adopt_platform(self)

    # -- telemetry ------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Route spans/metrics from this platform to ``telemetry``."""
        self.telemetry = telemetry
        self.kernel.telemetry = telemetry

    def detach_telemetry(self) -> None:
        """Restore the no-op telemetry sink."""
        self.attach_telemetry(obs_spans.NULL_TELEMETRY)

    # -- fault injection ------------------------------------------------------
    def install_fault_plan(
        self, plan: "res_faults.FaultPlan"
    ) -> "res_faults.FaultInjector":
        """Arm deterministic fault injection on this platform."""
        injector = res_faults.FaultInjector(self, plan)
        self.resilience = injector
        return injector

    # -- host-memory budget ---------------------------------------------------
    @property
    def host_used(self) -> int:
        """Bytes of host memory currently registered by regions."""
        return self._host_used

    @property
    def host_peak(self) -> int:
        """High-water mark of registered host memory."""
        return self._host_peak

    def register_host_bytes(self, nbytes: int, tag: str = "", charge: bool = True) -> None:
        """Account host memory mapped for device access.

        ``charge=True`` additionally bills the pinning/registration cost
        (graph setup); growth of already-mapped unified allocations (e.g.
        embedding-table columns) passes ``charge=False`` because its
        transfer cost is billed by the write path instead.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        available = self.spec.host_memory_bytes - self._host_used
        if nbytes > available:
            raise HostOutOfMemory(nbytes, available, tag)
        self._host_used += nbytes
        self._host_peak = max(self._host_peak, self._host_used)
        if not charge:
            return
        prep = nbytes / self.cost.host_register_bandwidth
        if not self._host_registered_once:
            prep += self.cost.host_register_fixed
            self._host_registered_once = True
        self.clock.advance(clk.HOST_PREP, prep)

    def unregister_host_bytes(self, nbytes: int, tag: str = "") -> None:
        if nbytes < 0 or nbytes > self._host_used:
            raise ValueError(f"bad unregister of {nbytes} bytes (tag={tag!r})")
        self._host_used -= nbytes

    # -- region factories -------------------------------------------------------
    def unified_region(
        self, name: str, array: np.ndarray, buffer_pages: int
    ) -> UnifiedRegion:
        """Map ``array`` as unified memory with a device buffer of
        ``buffer_pages`` pages."""
        return UnifiedRegion(name, array, self, buffer_pages)

    def zerocopy_region(self, name: str, array: np.ndarray) -> ZeroCopyRegion:
        """Map ``array`` as zero-copy (pinned) memory."""
        return ZeroCopyRegion(name, array, self)

    def hybrid_region(
        self, name: str, array: np.ndarray, buffer_pages: int
    ) -> HybridRegion:
        """Map ``array`` with GAMMA's per-page hybrid access (duplicated in
        both host mappings, per §IV)."""
        return HybridRegion(name, array, self, buffer_pages)

    def device_region(self, name: str, array: np.ndarray) -> DeviceResidentRegion:
        """Stage ``array`` wholly in device memory (in-core baselines)."""
        return DeviceResidentRegion(name, array, self)

    # -- lifecycle ---------------------------------------------------------------
    def reset(self) -> None:
        """Zero the clock and counters (allocations are left untouched)."""
        self.clock.reset()
        self.counters.reset()

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time elapsed on this platform."""
        return self.clock.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GpuPlatform({self.spec.name}, t={self.clock.total:.3e}s, "
            f"device={self.device.used}/{self.device.capacity}B, "
            f"host={self._host_used}B)"
        )


def make_platform(
    num_warps: int | None = None,
    device_memory_bytes: int | None = None,
    cpu_threads: int | None = None,
    cost: CostModel | None = None,
    host_memory_bytes: int | None = None,
) -> GpuPlatform:
    """Convenience constructor used throughout tests and benchmarks."""
    spec = DEFAULT_SPEC
    if device_memory_bytes is not None or host_memory_bytes is not None:
        from dataclasses import replace

        overrides = {}
        if device_memory_bytes is not None:
            overrides["device_memory_bytes"] = device_memory_bytes
        if host_memory_bytes is not None:
            overrides["host_memory_bytes"] = host_memory_bytes
        spec = replace(spec, **overrides)
    return GpuPlatform(spec, cost, num_warps, cpu_threads)
