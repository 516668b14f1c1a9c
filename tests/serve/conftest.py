"""Shared fixtures and helpers for the serve-layer suites.

Every serve test runs under an autouse leak sentinel: after the test,
no ``gamma-spill-*`` temporary directories may have appeared and no
child process (a slot, a shard worker) may be left running — crash
containment (docs/SERVING.md) promises a dead worker never strands
either, and a closed scheduler has ended every slot.
"""

import glob
import multiprocessing
import os
import tempfile
import threading

import pytest

from repro.graph import generators
from repro.serve import slot as slot_mod


@pytest.fixture(scope="session")
def er_graph():
    """The serve suites' workhorse graph (small, deterministic)."""
    return generators.erdos_renyi(36, 120, seed=23, labels=3)


def spill_dirs():
    return set(glob.glob(
        os.path.join(tempfile.gettempdir(), "gamma-spill-*")))


@pytest.fixture(autouse=True)
def _no_resource_leaks():
    before = spill_dirs()
    # A module-scoped server's slots are alive before the test and after.
    children = set(multiprocessing.active_children())
    yield
    leaked = spill_dirs() - before
    assert not leaked, f"leaked spill dirs: {sorted(leaked)}"
    leaked = set(multiprocessing.active_children()) - children
    assert not leaked, f"leaked child processes: {sorted(map(str, leaked))}"


class ThreadSlot(slot_mod.SlotProcess):
    """A slot whose command loop runs on a thread of this process.

    Same pipe, same loop, same engine code as a forked slot; only the
    launch differs, so monkeypatches and the coverage tracer see the
    engine side.
    """

    def _launch(self, context, child, args):
        thread = threading.Thread(
            target=slot_mod.serve_slot, args=(child, *args),
            kwargs={"exit_process": False}, daemon=True,
            name=f"gamma-serve-slot-{self.index}")
        thread.start()
        thread.pid = thread.exitcode = None  # what a process would report
        return thread


@pytest.fixture
def inline_slots(monkeypatch):
    """Schedulers created in the test run their slots on threads."""
    monkeypatch.setattr(slot_mod, "SlotProcess", ThreadSlot)


def stream_payloads(state, kind=None):
    """A query's stream records with per-submission identity stripped.

    The parity contracts are over record *payloads*: a resumed run
    interleaves ``preempted``/``resumed`` records (shifting ``seq``),
    and comparing two submissions of the same spec means their query
    ids differ — neither is part of the computation.
    """
    return [
        {key: value for key, value in record.items()
         if key not in ("seq", "query")}
        for record in state.stream.records()
        if kind is None or record["type"] == kind
    ]
