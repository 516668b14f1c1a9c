"""The crash matrix: worker and slot deaths, OOM degradation, bad
submissions.

Crash containment (docs/SERVING.md): a fault mid-query affects exactly
that query — retried from its op-journal checkpoint (or its last
hand-over) or failed, per its ``on_crash`` policy — while other tenants'
queries run to completion, a killed slot is replaced, and no spill
directory or child process is left behind
(the autouse leak sentinel in ``conftest.py`` checks after every test
here).

Injected fault plans model *transient* failures: a plan that has killed
a worker once is not re-installed on the retry, so the resumed attempt
runs clean and must reproduce the unfaulted result bit for bit.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import QuerySpec, Scheduler, ServeConfig
from tests.serve.conftest import stream_payloads

CRASH_PLAN = FaultPlan(
    name="die",
    specs=(FaultSpec(kind="worker_crash", at="*/level:2"),),
).to_dict()

OOM_PLAN = FaultPlan(
    name="tight",
    specs=(FaultSpec(kind="device_oom", at="*/level:2/io:pool:alloc",
                     count=1),),
).to_dict()


def _crash_spec(**overrides):
    base = dict(family="kcl", k=4, dataset="G", tenant="victim", gpus=2,
                executor="process", fault_plan=CRASH_PLAN, fault_shard=1)
    base.update(overrides)
    return QuerySpec(**base)


@pytest.fixture
def scheduler(er_graph):
    sched = Scheduler(ServeConfig(slots=2), graphs={"G": er_graph})
    yield sched
    sched.close()


def test_crash_retry_resumes_bit_identical(er_graph, scheduler):
    clean = scheduler.submit(_crash_spec(tenant="clean", fault_plan=None))
    scheduler.run_until_idle()
    faulted = scheduler.submit(_crash_spec())
    scheduler.run_until_idle()
    assert faulted.status == "completed", faulted.error
    assert faulted.crashes == 1
    kinds = [r["type"] for r in faulted.stream.records()]
    assert "crash" in kinds
    crash = next(r for r in faulted.stream.records()
                 if r["type"] == "crash")
    assert crash["shard"] == 1
    # The retried run reproduces the unfaulted result bit for bit.
    assert faulted.result == clean.result
    assert stream_payloads(faulted, "partial") == \
        stream_payloads(clean, "partial")
    assert faulted.billing["crashes"] == 1


def test_crash_does_not_disturb_other_tenants(er_graph, scheduler):
    bystander = scheduler.submit(QuerySpec(
        family="motifs", num_edges=2, dataset="G", tenant="bystander"))
    faulted = scheduler.submit(_crash_spec())
    scheduler.run_until_idle()
    assert bystander.status == "completed", bystander.error
    assert bystander.crashes == 0
    assert faulted.status == "completed"
    assert scheduler.queue.inflight_count() == 0


def test_on_crash_fail_policy(er_graph, scheduler):
    faulted = scheduler.submit(_crash_spec(on_crash="fail"))
    scheduler.run_until_idle()
    assert faulted.status == "failed"
    assert "crash" in faulted.error
    assert faulted.stream.closed
    assert faulted.billing["status"] == "failed"
    assert faulted.billing["crashes"] == 1


def test_crash_retries_exhausted(er_graph):
    scheduler = Scheduler(ServeConfig(slots=1, crash_retries=0),
                          graphs={"G": er_graph})
    try:
        faulted = scheduler.submit(_crash_spec())
        scheduler.run_until_idle()
        assert faulted.status == "failed"
        assert faulted.crashes == 1
    finally:
        scheduler.close()


def test_broken_pool_is_not_reused(er_graph, scheduler):
    first = scheduler.submit(_crash_spec())
    scheduler.run_until_idle()
    assert first.status == "completed"
    # The crash evicted its pool; a later clean query must still work
    # (on a fresh pool) and the scheduler must not have re-pooled the
    # broken one.
    second = scheduler.submit(_crash_spec(tenant="later", fault_plan=None))
    scheduler.run_until_idle()
    assert second.status == "completed"
    assert second.result == first.result


def test_oom_degradation_policy_completes(er_graph, scheduler):
    rescued = scheduler.submit(QuerySpec(
        family="kcl", k=4, dataset="G", tenant="tight",
        fault_plan=OOM_PLAN, degradation="halve-chunk"))
    scheduler.run_until_idle()
    assert rescued.status == "completed", rescued.error
    clean = scheduler.submit(QuerySpec(
        family="kcl", k=4, dataset="G", tenant="tight"))
    scheduler.run_until_idle()
    assert rescued.result["cliques"] == clean.result["cliques"]


def test_oom_without_policy_fails_only_that_query(er_graph, scheduler):
    doomed = scheduler.submit(QuerySpec(
        family="kcl", k=4, dataset="G", tenant="tight",
        fault_plan=OOM_PLAN))
    bystander = scheduler.submit(QuerySpec(
        family="kcl", k=3, dataset="G", tenant="other"))
    scheduler.run_until_idle()
    assert doomed.status == "failed"
    assert bystander.status == "completed"


def test_unknown_dataset_fails_cleanly(er_graph, scheduler):
    bad = scheduler.submit(QuerySpec(family="kcl", k=3,
                                     dataset="NO-SUCH", tenant="a"))
    good = scheduler.submit(QuerySpec(family="kcl", k=3, dataset="G",
                                      tenant="a"))
    scheduler.run_until_idle()
    assert bad.status == "failed"
    assert "unknown dataset" in bad.error
    assert bad.stream.closed
    assert good.status == "completed"
    # The failed build released its slot.
    assert scheduler.queue.inflight_count() == 0


def test_failed_query_still_bills(er_graph, scheduler):
    bad = scheduler.submit(QuerySpec(family="kcl", k=3,
                                     dataset="NO-SUCH", tenant="a"))
    scheduler.run_until_idle()
    assert bad.billing is not None
    assert bad.billing["status"] == "failed"
    assert bad.billing["error"] == bad.error
    assert bad.billing["tenant"] == "a"


# -- a slot process killed mid-query --------------------------------------------
def _group(pgid):
    """Live processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (FileNotFoundError, ProcessLookupError):
                continue
            if fields[0] != "Z" and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


@pytest.mark.parametrize("executor,gpus", [("serial", 1), ("process", 2)])
@pytest.mark.parametrize("on_crash", ["retry", "fail"])
def test_killed_slot_follows_on_crash(er_graph, on_crash, executor, gpus):
    """On the process executor the slot dies with a live pool: its shard
    workers must not keep the scheduler waiting, nor outlive it."""
    spec = QuerySpec(family="kcl", k=5, dataset="G", tenant="victim",
                     on_crash=on_crash, executor=executor, gpus=gpus)
    scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
    try:
        clean = scheduler.submit(dataclasses.replace(spec, tenant="clean"))
        scheduler.run_until_idle()
        killed = scheduler._slots[0].process.pid
        victim = scheduler.submit(spec)
        bystander = scheduler.submit(QuerySpec(
            family="motifs", num_edges=2, dataset="G", tenant="bystander"))

        def on_stage(state, stage, info):
            if state is victim and stage == 2 and victim.crashes == 0:
                os.kill(killed, signal.SIGKILL)

        scheduler.run_until_idle(on_stage=on_stage)
        replacement = scheduler._slots[0]
        assert replacement.process.pid != killed
        assert replacement.process.is_alive()
        deadline = time.monotonic() + 10.0
        while _group(killed):
            assert time.monotonic() < deadline, "the slot's workers live on"
            time.sleep(0.05)
    finally:
        scheduler.close()
    crash = next(r for r in victim.stream.records() if r["type"] == "crash")
    assert crash["shard"] is None
    assert crash["exit_code"] == -signal.SIGKILL
    assert victim.crashes == 1 and victim.billing["crashes"] == 1
    assert bystander.status == "completed", bystander.error
    assert bystander.crashes == 0
    if on_crash == "fail":
        assert victim.status == "failed"
        assert "crash" in victim.error
        assert victim.billing["status"] == "failed"
    else:
        # The retry restarts from the start on the fresh slot: same result,
        # same partials, the replayed ones not streamed twice.
        assert victim.status == "completed", victim.error
        assert victim.result == clean.result
        assert stream_payloads(victim, "partial") == \
            stream_payloads(clean, "partial")


def test_killed_slot_spares_the_tenant_on_the_other_slot(
        er_graph, monkeypatch):
    """Threaded mode: the victim's slot dies at its second level while the
    other tenant's queries run on the other slot."""
    drive = Scheduler._drive
    killed = []

    def killing_drive(self, slot, state, sync, on_stage):
        def kill_at_level_2(state, stage, info):
            if stage == 2 and not killed:
                killed.append(slot.process.pid)
                os.kill(slot.process.pid, signal.SIGKILL)

        if state.spec.tenant == "victim":
            on_stage = kill_at_level_2
        return drive(self, slot, state, sync, on_stage)

    monkeypatch.setattr(Scheduler, "_drive", killing_drive)
    scheduler = Scheduler(ServeConfig(slots=2), graphs={"G": er_graph})
    try:
        scheduler.start()
        before = [slot.process.pid for slot in scheduler._slots]
        victim = scheduler.submit(QuerySpec(family="kcl", k=5, dataset="G",
                                            tenant="victim"))
        others = [scheduler.submit(QuerySpec(
            family="motifs", num_edges=2, dataset="G", tenant="other"))
            for _ in range(3)]
        assert scheduler.wait_idle(timeout=120.0)
        after = [slot.process.pid for slot in scheduler._slots]
    finally:
        scheduler.close()
    assert victim.status == "completed", victim.error
    assert victim.crashes == 1
    assert all(s.status == "completed" and s.crashes == 0 for s in others)
    assert killed[0] in before and killed[0] not in after
    assert len(set(before) & set(after)) == 1  # only that slot was re-forked


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_slots_exit_when_their_server_dies(tmp_path):
    """A server that dies without closing leaves no slot behind: each slot
    holds no copy of the scheduler's pipe ends, so it meets EOF."""
    out = tmp_path / "pids"
    code = textwrap.dedent(f"""
        import os
        from repro.graph import generators
        from repro.serve import Scheduler, ServeConfig
        graph = generators.erdos_renyi(36, 120, seed=23, labels=3)
        scheduler = Scheduler(ServeConfig(slots=2), graphs={{"G": graph}})
        scheduler.start()
        with open({str(out)!r}, "w") as handle:
            print(*(slot.process.pid for slot in scheduler._slots), file=handle)
        os._exit(0)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                   stdout=subprocess.DEVNULL, check=True)
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 30.0
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "a slot outlived its server"
            time.sleep(0.05)
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
