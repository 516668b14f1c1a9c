"""The slot's command loop, driven in-process over a pipe.

:func:`repro.serve.slot.serve_slot` runs here on a thread, over the same
``multiprocessing.Pipe`` a forked slot reads, so every reply shape of the
wire protocol is exercised where the coverage tracer sees it: streamed
stages and their verdicts, a yield with the pickled snapshot another slot
resumes from, warm process pools and their journals, pickled errors, and
the loop's exits.
"""

import itertools
import json
import os
import pickle

import pytest

from repro.core.framework import Gamma
from repro.errors import GammaError, WorkerCrashed
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import QuerySpec, ServeConfig, result_payload, run_query
from repro.serve.slot import GO, YIELD
from tests.serve.conftest import ThreadSlot


_QUERY_IDS = itertools.count(1)


def attempt(slot, spec, verdicts=None, resume_state=None, faults=False,
            query=None):
    """Drive one attempt over ``slot``'s pipe; ``verdicts`` maps a stage to
    its answer (GO by default).  Returns (messages before the reply, the
    final reply)."""
    query = next(_QUERY_IDS) if query is None else query
    slot.conn.send({"query": query, "spec": spec,
                    "resume_state": resume_state, "faults": faults,
                    "exec_seconds": 0.0})
    messages = []
    while True:
        message = slot.conn.recv()
        if message["kind"] == "stage":
            slot.conn.send((verdicts or {}).get(message["stage"], GO))
        elif message["kind"] != "built":
            return messages, message
        messages.append(message)


@pytest.fixture
def slots(er_graph, tmp_path):
    """Factory of slots on threads sharing one workdir; all closed after."""
    made = []

    def make(**config):
        slot = ThreadSlot(len(made), ServeConfig(**config), {"G": er_graph},
                          str(tmp_path / "work"))
        made.append(slot)
        return slot

    yield make
    for slot in made:
        if not slot.conn.closed:
            slot.close()
        assert not slot.process.is_alive()


def _batch(graph, spec):
    with Gamma(graph, num_shards=spec.gpus, executor="serial") as engine:
        payload = result_payload(spec, run_query(engine, spec))
        payload["simulated_seconds"] = engine.simulated_seconds
    return payload


def test_attempt_streams_every_level_then_the_result(er_graph, slots):
    spec = QuerySpec(family="kcl", k=4, dataset="G", executor="serial")
    messages, reply = attempt(slots(), spec)
    built, *stages = messages
    assert built == {"kind": "built", "executor": "serial",
                     "checkpoint_dir": None}
    assert [m["stage"] for m in stages] == [1, 2, 3, 4]
    assert [m["info"]["level"] for m in stages] == [1, 2, 3, 4]
    assert reply["kind"] == "done"
    assert reply["payload"] == _batch(er_graph, spec)
    assert (reply["pools"], reply["pool_reuses"]) == (0, 0)


@pytest.mark.parametrize("gpus", [1, 2])
def test_a_yield_ships_a_snapshot_any_slot_resumes(er_graph, slots, gpus):
    spec = QuerySpec(family="kcl", k=5, dataset="G", gpus=gpus,
                     executor="serial")
    messages, reply = attempt(slots(), spec, verdicts={2: YIELD})
    assert [m["stage"] for m in messages[1:]] == [1, 2]
    assert reply["kind"] == "preempted" and reply["level"] == 2
    assert isinstance(reply["snapshot"], bytes)
    assert len(pickle.loads(reply["snapshot"])) == gpus
    # Another slot replays the hand-over, then runs the rest.
    messages, resumed = attempt(slots(), spec,
                                resume_state=reply["snapshot"])
    assert [m["stage"] for m in messages[1:]] == [1, 2, 3, 4, 5]
    assert resumed["kind"] == "done"
    assert resumed["payload"] == _batch(er_graph, spec)


def test_process_queries_journal_and_keep_their_pool_warm(er_graph, slots):
    slot = slots()
    spec = QuerySpec(family="kcl", k=4, dataset="G", gpus=2,
                     executor="process")
    messages, first = attempt(slot, spec)
    built = messages[0]
    assert built["executor"] == "process"
    assert os.path.isdir(built["checkpoint_dir"])  # journaled through
    assert first["kind"] == "done"
    assert (first["pools"], first["pool_reuses"]) == (1, 0)
    __, preempted = attempt(slot, spec, verdicts={2: YIELD})
    # Worker processes hand over through their journal, not the reply.
    assert preempted["kind"] == "preempted"
    assert preempted["snapshot"] is None
    assert (preempted["pools"], preempted["pool_reuses"]) == (1, 1)
    assert first["payload"] == _batch(er_graph, spec)


def test_a_shard_worker_crash_comes_back_typed_and_evicts_the_pool(slots):
    plan = FaultPlan(name="die", specs=(
        FaultSpec(kind="worker_crash", at="*/level:2"),)).to_dict()
    slot = slots()
    spec = QuerySpec(family="kcl", k=4, dataset="G", gpus=2,
                     executor="process", fault_plan=plan, fault_shard=1)
    __, reply = attempt(slot, spec, faults=True)
    error = pickle.loads(reply["error"])
    assert isinstance(error, WorkerCrashed) and error.shard == 1
    assert reply["pools"] == 0  # the broken pool was terminated
    # The fault plan is what the scheduler drops on a retry.
    __, retry = attempt(slot, spec, faults=False)
    assert retry["kind"] == "done"


def test_errors_come_back_pickled_and_the_slot_keeps_serving(slots):
    slot = slots()
    messages, reply = attempt(slot, QuerySpec(family="kcl", k=3,
                                              dataset="NO-SUCH"))
    assert messages == []  # no engine was built
    error = pickle.loads(reply["error"])
    assert isinstance(error, GammaError)
    assert "unknown dataset" in str(error)
    __, reply = attempt(slot, QuerySpec(family="kcl", k=3, dataset="G"))
    assert reply["kind"] == "done"


class Unpicklable(GammaError):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("raised,expected", [
    # A defect arrives as an ExecutionError carrying its traceback.
    (ZeroDivisionError("a defect"), "ZeroDivisionError: a defect"),
    (Unpicklable("local failure"), "Unpicklable: local failure"),
])
def test_every_error_comes_back_as_a_gamma_error(slots, monkeypatch,
                                                  raised, expected):
    import repro.serve.slot as slot_mod

    def boom(*args, **kwargs):
        raise raised

    monkeypatch.setattr(slot_mod, "Gamma", boom)
    slot = slots()
    __, reply = attempt(slot, QuerySpec(family="kcl", k=3, dataset="G"))
    error = pickle.loads(reply["error"])
    assert isinstance(error, GammaError)
    assert expected in str(error)
    monkeypatch.undo()
    __, reply = attempt(slot, QuerySpec(family="kcl", k=3, dataset="G"))
    assert reply["kind"] == "done"  # the slot kept serving


def test_manifests_land_in_the_manifest_dir(er_graph, slots, tmp_path):
    mdir = tmp_path / "records"
    slot = slots(manifest_dir=str(mdir))
    __, reply = attempt(slot, QuerySpec(family="motifs", num_edges=2,
                                        dataset="G", tenant="t"), query=7)
    assert reply["kind"] == "done"
    manifest = json.loads((mdir / "query-000007.json").read_text())
    assert manifest["query"]["id"] == 7
    assert manifest["query"]["tenant"] == "t"


def test_the_loop_ends_when_the_scheduler_vanishes(slots):
    slot = slots()
    slot.conn.close()
    slot.process.join(timeout=30.0)
    assert not slot.process.is_alive()
