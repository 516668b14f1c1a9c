"""Crash-matrix differential suite: faulted-then-resumed == uninterrupted.

Each matrix cell is (workload x fault kind x injection level).  One run
proceeds uninterrupted; a second runs under a deterministic fault plan
until the injected fault kills it, then a *fresh* engine resumes from the
on-disk checkpoint and finishes the same driver.  The resumed run must
reproduce the uninterrupted run's results, simulated-clock buckets, and
counter totals bit-for-bit — checkpointing is uncharged bookkeeping, so
any drift is a real accounting bug.

A second battery sweeps the graceful-degradation ladder: each policy must
complete a workload that *genuinely* dies with an out-of-memory fault
(no injection — the simulated device/host really is too small), matching
the result computed under a roomy configuration.
"""

import pytest

from repro.algorithms import count_kcliques, frequent_pattern_mining
from repro.core.framework import Gamma, GammaConfig
from repro.errors import (
    DeviceOutOfMemory,
    GammaError,
    HostOutOfMemory,
    MemoryPoolExhausted,
    SpillIOError,
)
from repro.graph.generators import erdos_renyi
from repro.gpusim import make_platform
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.faults import BACKOFF_CATEGORY, STALL_CATEGORY

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _kcl_engine():
    return Gamma(erdos_renyi(300, 3600, seed=3))


def _kcl_task(engine):
    return count_kcliques(engine, 4)


def _kcl_signature(result):
    return ("kcl", result.k, result.cliques)


def _fpm_engine():
    return Gamma(erdos_renyi(120, 700, seed=5, labels=3))


def _fpm_task(engine):
    return frequent_pattern_mining(engine, iterations=3, min_support=4)


def _fpm_signature(result):
    return ("fpm", sorted(result.patterns.items()),
            result.frequent_per_level)


WORKLOADS = {
    "kcl4": (_kcl_engine, _kcl_task, _kcl_signature),
    "fpm3": (_fpm_engine, _fpm_task, _fpm_signature),
}

#: (cell id, workload, one-shot fault spec).  Paths follow the span
#: hierarchy: phases wrap levels, io sites hang off both.
MATRIX = [
    ("kcl4-device-oom-level3", "kcl4",
     FaultSpec(kind="device_oom", at="*/level:3")),
    ("kcl4-pool-exhausted-level2", "kcl4",
     FaultSpec(kind="pool_exhausted", at="*/level:2")),
    ("kcl4-spill-io-extension", "kcl4",
     FaultSpec(kind="spill_io", at="*/phase:vertex-extension", after=2)),
    ("fpm3-host-oom-aggregation", "fpm3",
     FaultSpec(kind="host_oom", at="*/phase:aggregation", after=1)),
    ("fpm3-device-oom-level2", "fpm3",
     FaultSpec(kind="device_oom", at="*/level:2")),
]


def _accounting(engine):
    return (engine.platform.clock.snapshot(),
            engine.platform.counters.snapshot(include_zero=True))


def _uninterrupted(workload):
    make_engine, task, signature = WORKLOADS[workload]
    engine = make_engine()
    try:
        result = task(engine)
        return signature(result), _accounting(engine)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Fault-then-resume differential
# ---------------------------------------------------------------------------


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "workload,spec", [(w, s) for __, w, s in MATRIX],
        ids=[cell for cell, __, ___ in MATRIX])
    def test_fault_then_resume_bit_identical(self, tmp_path, workload, spec):
        make_engine, task, signature = WORKLOADS[workload]
        ckpt = tmp_path / "ckpt"

        # Leg 1: the fault plan kills the run mid-workload.
        crashed = make_engine()
        crashed.platform.install_fault_plan(
            FaultPlan(name="matrix", specs=(spec,)))
        with pytest.raises(GammaError):
            crashed.run(task, checkpoint_dir=ckpt)
        assert any(e["type"] == "fault-injected"
                   for e in crashed.platform.resilience_log)
        crashed.close()
        assert (ckpt / "shard-0" / "checkpoint.bin").exists()

        # Leg 2: a fresh engine (no plan — the pressure was transient)
        # resumes from disk and finishes the same driver.
        resumed = make_engine()
        result = resumed.run(task, checkpoint_dir=ckpt, resume=True)
        resumed_sig = signature(result)
        resumed_acct = _accounting(resumed)
        # The killing fault fired *after* the last completed op, so it is
        # not part of the checkpointed timeline: the resumed log restarts
        # from the (pre-fault) checkpoint state.
        assert not any(e["type"] == "fault-injected"
                       for e in resumed.platform.resilience_log)
        resumed.close()

        ref_sig, ref_acct = _uninterrupted(workload)
        assert resumed_sig == ref_sig
        assert resumed_acct[0] == ref_acct[0]  # clock buckets, bit-for-bit
        assert resumed_acct[1] == ref_acct[1]  # counters, bit-for-bit

    def test_injected_fault_types_match_kind(self):
        """Each raising fault kind surfaces as its modelled error class."""
        expected = {
            "device_oom": DeviceOutOfMemory,
            "host_oom": HostOutOfMemory,
            "pool_exhausted": MemoryPoolExhausted,
            "spill_io": SpillIOError,
        }
        for kind, error in expected.items():
            engine = _kcl_engine()
            engine.platform.install_fault_plan(FaultPlan(
                name="kind", specs=(FaultSpec(kind=kind, at="*/level:*"),)))
            with pytest.raises(error):
                _kcl_task(engine)
            engine.close()

    def test_stall_bursts_are_deterministic_and_charged(self):
        """pcie_stall is non-fatal: it charges the stall category the same
        way on every run of the same plan."""
        plan = FaultPlan(
            name="stalls", seed=99,
            specs=(FaultSpec(kind="pcie_stall", at="*/level:*", count=0),))
        snapshots = []
        for __ in range(2):
            engine = _kcl_engine()
            engine.platform.install_fault_plan(plan)
            result = _kcl_task(engine)
            snapshots.append((result.cliques,
                              engine.platform.clock.snapshot()))
            assert engine.platform.clock.time_in(STALL_CATEGORY) > 0
            engine.close()
        assert snapshots[0] == snapshots[1]

    def test_resume_requires_same_workload(self, tmp_path):
        """Replaying a checkpoint under a different driver is an error, not
        silent corruption."""
        ckpt = tmp_path / "ckpt"
        engine = _kcl_engine()
        engine.platform.install_fault_plan(FaultPlan(
            name="crash",
            specs=(FaultSpec(kind="device_oom", at="*/level:3"),)))
        with pytest.raises(DeviceOutOfMemory):
            engine.run(_kcl_task, checkpoint_dir=ckpt)
        engine.close()

        resumed = _kcl_engine()
        with pytest.raises(GammaError, match="resume mismatch"):
            resumed.run(_fpm_task, checkpoint_dir=ckpt, resume=True)
        resumed.close()


# ---------------------------------------------------------------------------
# Degradation-policy recoveries (genuine OOM, no injection)
# ---------------------------------------------------------------------------

#: Prealloc on a 1 MiB device with a large page buffer: the per-chunk
#: extension allocation cannot fit, so kCL-4 genuinely dies mid-level.
_TIGHT_DEVICE = GammaConfig(write_strategy="prealloc",
                            device_memory_bytes=1 << 20,
                            buffer_fraction=0.7)


def _oom_graph():
    return erdos_renyi(2000, 40000, seed=11)


@pytest.fixture(scope="module")
def reference_cliques():
    """kCL-4 count under a roomy default configuration."""
    engine = Gamma(_oom_graph())
    try:
        return count_kcliques(engine, 4).cliques
    finally:
        engine.close()


class TestDegradationPolicies:
    def test_tight_device_genuinely_dies(self):
        engine = Gamma(_oom_graph(), _TIGHT_DEVICE)
        with pytest.raises(DeviceOutOfMemory):
            count_kcliques(engine, 4)
        engine.close()

    def test_tight_host_genuinely_dies(self):
        engine = Gamma(_oom_graph(),
                       platform=make_platform(host_memory_bytes=1 << 21))
        with pytest.raises(HostOutOfMemory):
            count_kcliques(engine, 4)
        engine.close()

    @pytest.mark.parametrize("policy", ["halve-chunk", "demote-pages"])
    def test_policy_recovers_device_oom(self, policy, reference_cliques):
        engine = Gamma(_oom_graph(), _TIGHT_DEVICE)
        result = engine.run(lambda e: count_kcliques(e, 4), policy=policy)
        events = [e for e in engine.platform.resilience_log
                  if e["type"] == "degradation"]
        backoff = engine.platform.clock.time_in(BACKOFF_CATEGORY)
        engine.close()
        assert result.cliques == reference_cliques
        assert events and all(e["policy"] == policy for e in events)
        assert all(e["error"] == "DeviceOutOfMemory" for e in events)
        assert backoff > 0  # simulated recovery cost is charged

    def test_spill_policy_recovers_host_oom(self, reference_cliques):
        engine = Gamma(_oom_graph(),
                       platform=make_platform(host_memory_bytes=1 << 21))
        result = engine.run(lambda e: count_kcliques(e, 4), policy="spill")
        events = [e for e in engine.platform.resilience_log
                  if e["type"] == "degradation"]
        spilled = engine.shards[0]._spill_store.bytes_spilled
        engine.close()
        assert result.cliques == reference_cliques
        assert events and all(e["policy"] == "spill" for e in events)
        assert spilled > 0  # the disk tier actually engaged

    def test_without_policy_fault_propagates(self):
        engine = Gamma(_oom_graph(), _TIGHT_DEVICE)
        with pytest.raises(DeviceOutOfMemory):
            engine.run(lambda e: count_kcliques(e, 4))
        engine.close()

    def test_bounded_retries(self):
        """A policy that never helps exhausts max_retries and re-raises."""

        class Useless:
            name = "useless"

            def apply(self, gamma, exc, attempt):
                return {"action": "noop"}

        engine = Gamma(_oom_graph(), _TIGHT_DEVICE)
        with pytest.raises(DeviceOutOfMemory):
            engine.run(lambda e: count_kcliques(e, 4),
                       policy=Useless(), max_retries=2)
        attempts = [e["attempt"] for e in engine.platform.resilience_log
                    if e["type"] == "degradation"]
        engine.close()
        assert attempts == [1, 2]
