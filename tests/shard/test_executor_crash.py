"""Crash matrix for the process-pool shard executor.

A worker process can die two ways: an injected ``worker_crash`` fault
(the worker calls ``os._exit`` mid-command, no reply, no cleanup) or a
real signal (``SIGKILL`` from outside).  Either way the coordinator must
(a) surface :class:`~repro.errors.WorkerCrashed` naming the shard, (b)
refuse further commands on the broken executor, (c) leave the last
per-shard checkpoints on disk so a fresh engine resumes to bit-identical
final accounting, and (d) leak no spill temp dirs.  This file pins all
four, plus the degradation-ladder parity between backends, the fork-state
pickling contract and how a worker gets its graph.
"""

import glob
import multiprocessing
import os
import pickle
import signal
import tempfile
import threading
import time
from multiprocessing import Pipe

import pytest

from repro.algorithms import count_kcliques, triangle_count
from repro.core import GammaConfig
from repro.errors import ExecutionError, WorkerCrashed
from repro.graph import generators
from repro.gpusim.spec import InterconnectSpec
from repro.resilience import FaultPlan, FaultSpec
from repro.shard import ProcessExecutor, SerialExecutor, ShardedGamma
from repro.shard.worker import CRASH_EXIT_CODE, ShardWorker, serve

CRASH_PLAN = FaultPlan(
    name="die",
    specs=(FaultSpec(kind="worker_crash", at="*/level:2"),),
)


@pytest.fixture(scope="module")
def graph():
    return generators.erdos_renyi(36, 120, seed=23, labels=3)


def _task(engine):
    return count_kcliques(engine, 4)


def _spill_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      "gamma-spill-*")))


def test_injected_crash_serial(graph):
    engine = ShardedGamma(graph, num_shards=2, executor="serial")
    engine.install_fault_plan(CRASH_PLAN, shard=1)
    with pytest.raises(WorkerCrashed):
        _task(engine)
    engine.close()


def test_injected_crash_process_names_shard_and_exit_code(graph):
    spills_before = _spill_dirs()
    engine = ShardedGamma(graph, num_shards=2, executor="process")
    engine.install_fault_plan(CRASH_PLAN, shard=1)
    with pytest.raises(WorkerCrashed) as info:
        _task(engine)
    assert info.value.shard == 1
    assert info.value.exit_code == CRASH_EXIT_CODE
    # The broken executor refuses everything after the crash.
    with pytest.raises(ExecutionError, match="no longer usable"):
        engine.shard_states()
    engine.close()
    assert _spill_dirs() == spills_before


def test_sigkill_mid_run(graph):
    """A real SIGKILL (not the injector) surfaces the same way."""
    engine = ShardedGamma(graph, num_shards=2, executor="process")
    pids = engine.executor.pids
    assert len(pids) == 2 and all(pid > 0 for pid in pids)
    os.kill(pids[1], signal.SIGKILL)
    # Give the kernel a beat to tear the pipe down.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.kill(pids[1], 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    with pytest.raises(WorkerCrashed) as info:
        _task(engine)
    assert info.value.shard == 1
    assert info.value.exit_code == -signal.SIGKILL
    engine.close()


@pytest.mark.parametrize("resume_backend", ["serial", "process"])
def test_crash_then_resume_bit_identical(graph, tmp_path, resume_backend):
    """Checkpoint/resume after a worker crash matches a clean run exactly,
    whichever backend performs the resume."""
    ckpt = tmp_path / "ck"
    crashed = ShardedGamma(graph, num_shards=2, executor="process")
    crashed.install_fault_plan(CRASH_PLAN, shard=1)
    with pytest.raises(WorkerCrashed):
        crashed.run(_task, checkpoint_dir=str(ckpt))
    crashed.close()
    assert (ckpt / "shard-0" / "checkpoint.bin").exists()
    assert (ckpt / "shard-1" / "checkpoint.bin").exists()

    resumed = ShardedGamma(graph, num_shards=2, executor=resume_backend)
    result = resumed.run(_task, checkpoint_dir=str(ckpt), resume=True)

    clean = ShardedGamma(graph, num_shards=2, executor="serial")
    reference = _task(clean)
    assert result.cliques == reference.cliques
    resumed_states = resumed.shard_states()
    clean_states = clean.shard_states()
    for i in range(2):
        assert resumed_states[i]["counters"] == clean_states[i]["counters"]
        assert (resumed_states[i]["clock_buckets"]
                == clean_states[i]["clock_buckets"])
    resumed.close()
    clean.close()


def test_degradation_ladder_parity(graph):
    """The named-policy retry ladder produces identical resilience logs
    and final accounting under both backends."""
    plan = FaultPlan(
        name="pressure",
        specs=(FaultSpec(kind="device_oom", at="*/level:2", count=1),),
    )
    observed = {}
    for backend in ("serial", "process"):
        engine = ShardedGamma(graph, num_shards=2, executor=backend)
        engine.install_fault_plan(plan, shard=1)
        result = engine.run(_task, policy="halve-chunk")
        observed[backend] = (
            result.cliques, engine.resilience_log, engine.shard_states()
        )
        engine.close()
    assert observed["serial"] == observed["process"]
    events = [e for e in observed["process"][1]
              if e["type"] == "degradation"]
    assert events and all(e["shard"] == 1 for e in events)


@pytest.fixture(scope="module")
def big_graph():
    """Over 1 MiB of CSR arrays."""
    return generators.erdos_renyi(2500, 26000, seed=7, labels=3)


def _data_address(array) -> int:
    return array.__array_interface__["data"][0]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_worker_reads_the_coordinators_csr(big_graph, monkeypatch):
    """A forked worker's graph is the coordinator's: its arrays sit at the
    coordinator's addresses (inherited copy-on-write), not in a copy."""
    # A command only this test sends, set before the fork so the workers
    # have it.
    monkeypatch.setattr(
        ShardWorker, "do_neighbors_address",
        lambda worker: _data_address(worker.graph.neighbors), raising=False)
    engine = ShardedGamma(big_graph, num_shards=2,
                          executor=ProcessExecutor(start_method="fork"))
    try:
        addresses = engine.executor.fanout("neighbors_address", [{}, {}])
    finally:
        engine.close()
    assert addresses == [_data_address(big_graph.neighbors)] * 2


def test_executors_pickle_as_inert_config(graph):
    """Fork-state contract: pickling an executor never ships live state."""
    engine = ShardedGamma(graph, num_shards=2, executor="process")
    triangle_count(engine)
    copy = pickle.loads(pickle.dumps(engine.executor))
    assert isinstance(copy, ProcessExecutor)
    assert copy.start_method == engine.executor.start_method
    assert copy._procs == [] and copy._conns == []
    assert not copy._broken and not copy._closed
    engine.close()

    serial = ShardedGamma(graph, num_shards=2, executor="serial")
    triangle_count(serial)
    copy = pickle.loads(pickle.dumps(serial.executor))
    assert isinstance(copy, SerialExecutor)
    assert copy.workers == []
    serial.close()


def test_spawn_start_method_smoke(big_graph, monkeypatch):
    """The spawn start method works end-to-end (slow: fresh interpreters),
    proving the worker bootstrap, graph included, is genuinely picklable."""
    monkeypatch.setenv("REPRO_SHARD_START_METHOD", "spawn")
    engine = ShardedGamma(big_graph, num_shards=2, executor="process")
    assert engine.executor.start_method == "spawn"
    got = triangle_count(engine).triangles
    engine.close()
    with ShardedGamma(big_graph, num_shards=2, executor="serial") as serial:
        assert got == triangle_count(serial).triangles


def _bootstrap(graph, index=0, num_shards=1):
    return {
        "index": index,
        "graph": graph,
        "config": GammaConfig(),
        "num_shards": num_shards,
        "policy": "static",
        "interconnect": InterconnectSpec(),
        "telemetry": False,
    }


def _serve_on_thread(graph, requests, bootstrap=None):
    """Drive the worker serve loop in-process over a pipe pair."""
    parent, child = Pipe(duplex=True)
    status = []
    thread = threading.Thread(
        target=lambda: status.append(
            serve(child, bootstrap or _bootstrap(graph), exit_process=False)
        )
    )
    thread.start()
    replies = [parent.recv()]  # build ack
    for request in requests:
        parent.send(request)
        if request is not None:
            try:
                replies.append(parent.recv())
            except EOFError:
                replies.append(None)
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    parent.close()
    return status[0], replies


def test_serve_loop_in_process(graph):
    status, replies = _serve_on_thread(graph, [
        {"op": "clock", "args": {}},
        {"op": "no_such_op", "args": {}},
        None,  # orderly-exit sentinel
    ])
    assert status == 0
    ack, clock_reply, bad_reply = replies
    assert ack["ok"] and ack["clock"] > 0.0  # engine construction charged
    assert clock_reply["ok"] and clock_reply["clock"] == ack["clock"]
    assert not bad_reply["ok"]
    with pytest.raises(ExecutionError, match="unknown shard command"):
        raise pickle.loads(bad_reply["error"])


def test_serve_loop_crash_returns_status(graph):
    """An injected crash escapes the loop with no reply and the crash
    status (the subprocess path calls os._exit with the same value)."""
    plan = FaultPlan(
        name="die", specs=(FaultSpec(kind="worker_crash", at="*"),)
    )
    status, replies = _serve_on_thread(graph, [
        {"op": "install_fault_plan", "args": {"plan": plan.to_dict()}},
        {"op": "new_table", "args": {"kind": "vertex", "name": "t"}},
        {"op": "seed_vertices", "args": {"table": 0, "label": None}},
    ])
    assert status == CRASH_EXIT_CODE
    # install + new_table replied; the crashing op never did.
    assert replies[1]["ok"] and replies[2]["ok"]
    assert replies[3] is None
