"""Barrier/exchange logging and the per-barrier straggler report.

The BSP engine logs one entry per barrier (which shard gated it, how long
each peer waited) and one per all-gather (payload bytes per shard);
``straggler_report`` turns those into the per-shard table embedded in the
sharded manifest.  Everything is derived from simulated quantities, so it
must not perturb the canonical-manifest determinism guarantee, and N=1
runs — which have no barriers — must embed nothing.
"""

import pytest

from repro.algorithms import count_kcliques, motif_count
from repro.graph import generators
from repro.obs.profile import render_straggler_report, straggler_report
from repro.shard import (
    ShardedGamma,
    build_sharded_manifest,
    canonical_manifest_bytes,
)


@pytest.fixture(scope="module")
def graph():
    return generators.erdos_renyi(36, 120, seed=23, labels=3)


@pytest.fixture(scope="module")
def engine(graph):
    # Motifs aggregate, so the run has both barriers and all-gathers
    # (k-clique never exchanges — extension is ownership-partitioned).
    engine = ShardedGamma(graph, num_shards=4, policy="stealing")
    motif_count(engine, 3)
    return engine


class TestEngineLogs:
    def test_barrier_log_populated_at_n4(self, engine):
        assert engine.barrier_log
        entry = engine.barrier_log[0]
        assert set(entry) >= {"superstep", "op", "gating_shard", "waits"}
        assert len(entry["waits"]) == 4
        assert 0 <= entry["gating_shard"] < 4
        # The gating shard is the one that nobody waits *for*.
        assert entry["waits"][entry["gating_shard"]] == pytest.approx(0.0)

    def test_supersteps_are_sequential(self, engine):
        assert [e["superstep"] for e in engine.barrier_log] == (
            list(range(len(engine.barrier_log))))

    def test_exchange_log_carries_per_shard_payloads(self, engine):
        assert engine.exchange_log
        for entry in engine.exchange_log:
            assert len(entry["payload_bytes"]) == 4
            assert all(b >= 0 for b in entry["payload_bytes"])

    def test_single_shard_logs_nothing(self, graph):
        engine = ShardedGamma(graph, num_shards=1)
        count_kcliques(engine, 4)
        assert engine.barrier_log == []
        assert engine.exchange_log == []


class TestStragglerReport:
    def test_report_shape(self, engine):
        report = straggler_report(engine)
        assert report["schema"] == "gamma-straggler/1"
        assert report["num_shards"] == 4
        assert report["supersteps"] == len(engine.barrier_log)
        assert len(report["per_shard"]) == 4
        gated = sum(r["gated_supersteps"] for r in report["per_shard"])
        assert gated == report["supersteps"]

    def test_exchange_shares_sum_to_one(self, engine):
        report = straggler_report(engine)
        assert report["exchange_bytes_total"] > 0
        shares = [r["exchange_share"] for r in report["per_shard"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_utilization_skew_matches_per_shard(self, engine):
        report = straggler_report(engine)
        utils = report["utilization"]
        assert report["utilization_skew"] == pytest.approx(
            max(utils) - min(utils))
        for row, util in zip(report["per_shard"], utils):
            assert row["utilization"] == pytest.approx(util)

    def test_render(self, engine):
        text = render_straggler_report(straggler_report(engine))
        assert "straggler report: 4 shards" in text
        assert "utilization skew" in text

    def test_render_empty(self, graph):
        engine = ShardedGamma(graph, num_shards=1)
        count_kcliques(engine, 4)
        text = render_straggler_report(straggler_report(engine))
        assert "no barriers recorded" in text


class TestManifestEmbedding:
    def test_multi_shard_manifest_embeds_straggler(self, engine):
        manifest = build_sharded_manifest(engine, system="GAMMA")
        assert manifest["straggler"]["schema"] == "gamma-straggler/1"
        assert manifest["straggler"]["num_shards"] == 4

    def test_single_shard_manifest_has_no_straggler(self, graph):
        engine = ShardedGamma(graph, num_shards=1)
        count_kcliques(engine, 4)
        manifest = build_sharded_manifest(engine, system="GAMMA")
        assert "straggler" not in manifest

    def test_straggler_is_deterministic_across_runs(self, graph):
        def one_run():
            engine = ShardedGamma(graph, num_shards=4, policy="stealing")
            count_kcliques(engine, 4)
            return canonical_manifest_bytes(
                build_sharded_manifest(engine, system="GAMMA"))

        assert one_run() == one_run()


class TestResumedLogs:
    """A resumed run's barrier and exchange logs are the uninterrupted
    run's: a replayed op's sync and exchange replies carry what the live op
    saw (its pre-wait clock and target, its payload and total), so the
    front logs those, not the restored clock and tables."""

    @staticmethod
    def _graph():
        return generators.erdos_renyi(120, 700, seed=3)

    @staticmethod
    def _task(engine):
        from repro.algorithms import frequent_pattern_mining

        return frequent_pattern_mining(engine, 3, 2)

    def _report(self, executor, journal=None, resume=False, fault=None):
        from repro.core import Gamma
        from repro.resilience import FaultPlan, FaultSpec

        with Gamma(self._graph(), num_shards=2, executor=executor) as engine:
            if fault is not None:
                engine.install_fault_plan(FaultPlan(name="crash", specs=(
                    FaultSpec(kind="device_oom", at=fault),)))
                with pytest.raises(Exception, match="out of memory|OOM"):
                    engine.run(self._task, checkpoint_dir=journal)
                return None
            result = engine.run(self._task, checkpoint_dir=journal,
                                resume=resume)
            return (result.frequent_per_level,
                    float.hex(engine.simulated_seconds),
                    straggler_report(engine), engine.barrier_log,
                    engine.exchange_log)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("suspend", [None, "*/level:2"])
    def test_resume_reports_the_uninterrupted_run(self, tmp_path, executor,
                                                  suspend):
        want = self._report(executor)
        journal = str(tmp_path)
        if suspend is None:
            self._report(executor, journal)  # a finished run: full replay
        else:
            self._report(executor, journal, fault=suspend)
        got = self._report(executor, journal, resume=True)
        assert got == want
        assert want[4] and any(entry["kind"] == "dedup" for entry in want[4])
