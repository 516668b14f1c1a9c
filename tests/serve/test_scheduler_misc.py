"""Scheduler surface outside the contract suites: dict specs, lazy
dataset loading, ``auto`` plans through the shared cache, manifest/
billing emission, and lifecycle edges."""

import json
import os

import pytest

from repro.errors import ExecutionError, GammaError
from repro.serve import Scheduler, ServeConfig
from repro.serve.queue import COMPLETED, FAILED


def _spec(**overrides):
    base = {"family": "kcl", "k": 3, "dataset": "G", "tenant": "t"}
    base.update(overrides)
    return base


class TestSubmissionSurface:
    def test_submit_accepts_plain_dicts(self, er_graph):
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            state = s.submit(_spec())
            s.run_until_idle()
            assert state.status == COMPLETED
            assert state.result["cliques"] > 0

    def test_datasets_load_lazily_and_cache(self, inline_slots,
                                            monkeypatch):
        """No preregistered graph: the slot loads it on first use, once."""
        from repro.graph import datasets
        loads = []
        load = datasets.load

        def counted(abbrev, *args, **kwargs):
            loads.append(abbrev)
            return load(abbrev, *args, **kwargs)

        monkeypatch.setattr(datasets, "load", counted)
        with Scheduler(ServeConfig(slots=1)) as s:
            first = s.submit(_spec(dataset="ER"))
            second = s.submit(_spec(dataset="ER"))
            s.run_until_idle()
            assert first.status == COMPLETED
            assert second.status == COMPLETED
            assert first.result == second.result
            assert loads == ["ER"]  # cached in the slot after the first
            assert "ER" not in s._graphs  # the scheduler never loads it


    def test_the_scheduler_process_builds_no_engine(self, er_graph,
                                                    monkeypatch):
        """Every engine is built in a slot: a spy on ``Gamma`` installed
        before the fork records nothing in this process."""
        from repro.core.framework import Gamma
        built = []
        init = Gamma.__init__

        def spy(self, *args, **kwargs):
            built.append(os.getpid())
            init(self, *args, **kwargs)

        monkeypatch.setattr(Gamma, "__init__", spy)
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            state = s.submit(_spec())
            s.run_until_idle()
            assert state.status == COMPLETED
        assert built == []


class TestAutoPlans:
    @pytest.mark.parametrize("overrides", [
        {"family": "kcl", "k": 3},
        {"family": "motifs", "num_edges": 2},
        {"family": "fpm", "iterations": 1, "min_support": 2},
        {"family": "sm", "query": 1},
    ])
    def test_auto_plan_matches_baseline(self, er_graph, overrides):
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            auto = s.submit(_spec(plan="auto", **overrides))
            base = s.submit(_spec(plan="baseline", **overrides))
            s.run_until_idle()
            assert auto.status == COMPLETED
            assert base.status == COMPLETED
            auto_payload = dict(auto.result)
            base_payload = dict(base.result)
            # An auto plan may reorder the match, shifting clock and
            # footprint; the mined answer itself must be identical.
            for volatile in ("simulated_seconds", "peak_memory_bytes"):
                auto_payload.pop(volatile, None)
                base_payload.pop(volatile, None)
            assert auto_payload == base_payload

    def test_plan_cache_is_shared_and_closed(self, er_graph, tmp_path):
        """Slots open their own handles on one sqlite file: a plan one
        slot resolved is a hit in the other, and close() releases it."""
        from repro.core.framework import Gamma
        from repro.serve import QuerySpec
        from repro.serve.slot import Slot
        spec = QuerySpec(family="kcl", k=3, dataset="G", plan="auto")
        slots = [Slot(ServeConfig(slots=2), {"G": er_graph}, str(tmp_path))
                 for _ in range(2)]
        try:
            cache = slots[0].plan_cache()
            assert slots[0].plan_cache() is cache
            for slot in slots:
                with Gamma(er_graph) as engine:
                    slot._resolve_plan(engine, spec)
            assert slots[1].plan_cache().stats()["hits"] == 1
        finally:
            for slot in slots:
                slot.close()
        assert slots[0]._plan_cache is None  # close() released the handle


class TestManifestEmission:
    def test_billing_and_manifest_files(self, tmp_path, er_graph):
        mdir = str(tmp_path / "records")
        config = ServeConfig(slots=1, manifest_dir=mdir)
        with Scheduler(config, graphs={"G": er_graph}) as s:
            local = s.submit(_spec())
            sharded = s.submit(_spec(
                family="motifs", num_edges=2, gpus=2, executor="serial"))
            s.run_until_idle()
            assert local.status == COMPLETED
            assert sharded.status == COMPLETED
            for state in (local, sharded):
                billing_path = os.path.join(
                    mdir, f"billing-{state.id:06d}.json")
                with open(billing_path, encoding="utf-8") as handle:
                    billing = json.load(handle)
                assert billing["schema"] == "gamma-billing/1"
                assert billing["tenant"] == "t"
                assert billing["status"] == COMPLETED
                manifest_path = os.path.join(
                    mdir, f"query-{state.id:06d}.json")
                with open(manifest_path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
                assert manifest["query"]["id"] == state.id
                assert manifest["query"]["tenant"] == "t"

    def test_failed_query_still_writes_billing(self, tmp_path, er_graph):
        mdir = str(tmp_path / "records")
        config = ServeConfig(slots=1, manifest_dir=mdir)
        with Scheduler(config, graphs={"G": er_graph}) as s:
            state = s.submit(_spec(dataset="NO-SUCH"))
            s.run_until_idle()
            assert state.status == FAILED
            path = os.path.join(mdir, f"billing-{state.id:06d}.json")
            with open(path, encoding="utf-8") as handle:
                assert json.load(handle)["status"] == FAILED


class TestLifecycleEdges:
    def test_run_until_idle_step_cap(self, er_graph):
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            s.submit(_spec())
            s.submit(_spec())
            with pytest.raises(ExecutionError, match="exceeded"):
                s.run_until_idle(max_steps=1)
            s.run_until_idle()  # drain the rest

    def test_start_is_idempotent(self, er_graph):
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            s.start()
            threads = list(s._threads)
            s.start()
            assert s._threads == threads
            assert s.wait_idle(timeout=30.0)
            s.stop()

    def test_wait_idle_times_out_with_pending_work(self, er_graph):
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            s.submit(_spec())  # no workers started: stays pending
            assert s.wait_idle(timeout=0.05) is False
            s.run_until_idle()

    def test_return_pool_after_close_terminates(self, er_graph, tmp_path):
        """A healthy pool stays warm in its slot until the slot closes; a
        broken one is terminated on return."""
        from repro.serve.slot import Slot

        class FakePool:
            _procs = [object()]
            pool_reuses = 0

            def __init__(self, broken):
                self._broken = broken
                self.terminated = 0

            def terminate(self):
                self.terminated += 1

        slot = Slot(ServeConfig(slots=1), {"G": er_graph}, str(tmp_path))
        warm, broken = FakePool(False), FakePool(True)
        slot._return_pool(("G", 2), warm)
        slot._return_pool(("G", 2), broken)
        assert (warm.terminated, broken.terminated) == (0, 1)
        assert slot.stats()["pools"] == 1
        slot.close()
        assert warm.terminated == 1
        assert slot.stats()["pools"] == 0

    def test_start_forks_every_slot_and_close_ends_them(self, er_graph):
        s = Scheduler(ServeConfig(slots=2), graphs={"G": er_graph})
        s.start()
        processes = [slot.process for slot in s._slots]
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes)
        state = s.submit(_spec())
        assert s.wait_idle(timeout=30.0)
        assert state.status == COMPLETED
        s.close()
        assert not any(process.is_alive() for process in processes)
        assert [process.exitcode for process in processes] == [0, 0]


class TestOutOfStepSlot:
    def test_a_raising_callback_replaces_the_slot(self, er_graph):
        """A driver that leaves mid-attempt drops its slot for a fresh one;
        the scheduler keeps serving."""
        stale = []
        with Scheduler(ServeConfig(slots=1), graphs={"G": er_graph}) as s:
            s.submit(_spec(k=4))

            def on_stage(state, stage, info):
                stale.append(s._slots[0].process)
                raise RuntimeError("callback failed")

            with pytest.raises(RuntimeError, match="callback failed"):
                s.run_until_idle(on_stage=on_stage)
            # Waiting for its verdict, the old slot meets EOF and exits.
            stale[0].join(timeout=30.0)
            assert stale[0].exitcode == 1
            assert s._slots[0].process is not stale[0]
            state = s.submit(_spec())
            s.run_until_idle()
            assert state.status == COMPLETED


class TestEngineBuildFailure:
    def test_pool_terminated_when_engine_construction_fails(
            self, er_graph, monkeypatch):
        import repro.serve.slot as slot_mod

        def boom(*args, **kwargs):
            raise GammaError("forced construction failure")

        config = ServeConfig(slots=1, executor="process")
        with Scheduler(config, graphs={"G": er_graph}) as s:
            # Patched before the slot forks, so the slot inherits it.
            monkeypatch.setattr(slot_mod, "Gamma", boom)
            state = s.submit(_spec(gpus=2))
            s.run_until_idle()
            assert state.status == FAILED
            assert "forced construction failure" in state.error
            assert s.stats()["pools"] == 0  # broken checkout not re-pooled
