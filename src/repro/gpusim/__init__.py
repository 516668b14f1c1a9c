"""Simulated CPU–GPU heterogeneous platform (see DESIGN.md §2).

The reproduction replaces the paper's Tesla V100 with a deterministic
cost-model simulator: algorithms do real work in NumPy, while all accesses
to host-resident data go through memory *regions* that count transactions,
page faults and migrations, and charge simulated time.  The module layout
mirrors the hardware description in the paper's §II:

* :mod:`.spec` — device spec + cost-model rates;
* :mod:`.clock`, :mod:`.stats` — simulated time and event counters;
* :mod:`.pcie` — the host/device bus;
* :mod:`.device` — capacity-limited device-memory allocator;
* :mod:`.regions`, :mod:`.unified`, :mod:`.zerocopy`, :mod:`.hybrid` —
  the four host-memory access modes (device-resident, unified, zero-copy,
  GAMMA's hybrid);
* :mod:`.warp`, :mod:`.kernel` — SIMT execution accounting;
* :mod:`.platform` — the bundle engines actually consume.
"""

from .clock import ClockSection, SimClock
from .device import DeviceAllocation, DeviceMemory
from .hybrid import HybridRegion
from .kernel import CpuExecutor, KernelLauncher
from .pcie import PcieBus
from .platform import GpuPlatform, make_platform
from .regions import (
    ChargeBatch,
    DeviceResidentRegion,
    HostRegion,
    covered_units,
    dedup_units,
    expand_ranges,
    range_lengths_in_units,
    units_for_indices,
)
from .spec import DEFAULT_COST, DEFAULT_SPEC, CostModel, DeviceSpec
from .trace import PhaseTimer, TraceRecorder
from .stats import Counters
from .unified import PageBuffer, UnifiedRegion
from .warp import WarpGrid, charge_warp_scan, warp_ballot, warp_exclusive_scan
from .zerocopy import ZeroCopyRegion

__all__ = [
    "ClockSection",
    "SimClock",
    "DeviceAllocation",
    "DeviceMemory",
    "HybridRegion",
    "CpuExecutor",
    "KernelLauncher",
    "PcieBus",
    "GpuPlatform",
    "make_platform",
    "ChargeBatch",
    "DeviceResidentRegion",
    "HostRegion",
    "covered_units",
    "dedup_units",
    "expand_ranges",
    "range_lengths_in_units",
    "units_for_indices",
    "PhaseTimer",
    "CostModel",
    "DeviceSpec",
    "DEFAULT_COST",
    "DEFAULT_SPEC",
    "Counters",
    "TraceRecorder",
    "PageBuffer",
    "UnifiedRegion",
    "WarpGrid",
    "charge_warp_scan",
    "warp_ballot",
    "warp_exclusive_scan",
    "ZeroCopyRegion",
]
