"""Scheduler surface outside the contract suites: dict specs, lazy
dataset loading, ``auto`` plans through the shared cache, manifest/
billing emission, lifecycle edges, and the pickle contract."""

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

    def test_datasets_load_lazily_and_cache(self):
        """No preregistered graph: the catalog loads on first use."""
        with Scheduler(ServeConfig(slots=1)) as s:
            first = s.submit(_spec(dataset="ER"))
            second = s.submit(_spec(dataset="ER"))
            s.run_until_idle()
            assert first.status == COMPLETED
            assert second.status == COMPLETED
            assert first.result == second.result
            assert "ER" in s._graphs  # cached after the first load


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

    def test_plan_cache_is_shared_and_closed(self, er_graph):
        s = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
        try:
            cache = s.plan_cache()
            assert s.plan_cache() is cache
        finally:
            s.close()
        assert s._plan_cache is None  # close() released the connection


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

    def test_return_pool_after_close_terminates(self, er_graph):
        class FakePool:
            _broken = False
            _procs = [object()]
            pool_reuses = 0
            terminated = 0

            def terminate(self):
                self.terminated += 1

        s = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
        s.close()
        pool = FakePool()
        s._return_pool(("G", 2), pool)
        assert pool.terminated == 1
        assert s.stats()["pools"] == 0


class TestEngineBuildFailure:
    def test_pool_terminated_when_engine_construction_fails(
            self, er_graph, monkeypatch):
        import repro.serve.scheduler as sched_mod

        def boom(*args, **kwargs):
            raise GammaError("forced construction failure")

        config = ServeConfig(slots=1, executor="process")
        with Scheduler(config, graphs={"G": er_graph}) as s:
            monkeypatch.setattr(sched_mod, "Gamma", boom)
            state = s.submit(_spec(gpus=2))
            s.run_until_idle()
            assert state.status == FAILED
            assert "forced construction failure" in state.error
            assert s.stats()["pools"] == 0  # broken checkout not re-pooled


class TestPickleContract:
    def test_getstate_drops_the_plan_cache(self, er_graph):
        s = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
        try:
            s.plan_cache()
            state = s.__getstate__()
            assert state["_plan_cache"] is None
            assert s._plan_cache is not None  # live object untouched
            clone = object.__new__(Scheduler)
            clone.__setstate__(state)
            assert clone._plan_cache is None
        finally:
            s.close()
