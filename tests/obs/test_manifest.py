"""Run manifests: contents, roundtrip, and the diff gate's semantics."""

import copy

import pytest

from repro import obs
from repro.algorithms import triangle_count
from repro.core import Gamma
from repro.graph import kronecker


@pytest.fixture(autouse=True)
def clean_default_slot():
    yield
    obs.uninstall()


@pytest.fixture(scope="module")
def manifest():
    graph = kronecker(7, 4, seed=3)
    collector = obs.install(obs.SpanCollector())
    with Gamma(graph) as engine:
        triangle_count(engine)
        collector.finish()
        return obs.build_manifest(
            engine.platform, collector,
            system="GAMMA", dataset="K7", task="triangles",
            config=engine.config,
        )


class TestBuildManifest:
    def test_identity_fields(self, manifest):
        assert manifest["schema"].startswith("gamma-manifest/")
        assert manifest["system"] == "GAMMA"
        assert manifest["dataset"] == "K7"
        assert manifest["task"] == "triangles"
        assert manifest["git_rev"]

    def test_counters_recorded(self, manifest):
        counters = manifest["counters"]
        assert counters["page_faults"] >= 0
        assert counters["element_ops"] > 0
        assert all(isinstance(v, int) and v >= 0 for v in counters.values())

    def test_derived_metrics_are_sane(self, manifest):
        derived = manifest["derived"]
        assert 0.0 <= derived["page_hit_rate"] <= 1.0
        assert derived["pcie_utilization"] > 0
        assert derived["device_utilization"] > 0

    def test_span_stats(self, manifest):
        assert manifest["spans"]["count"] > 3
        assert manifest["spans"]["max_depth"] >= 3
        assert manifest["spans"]["by_kind"]["run"] == 1

    def test_config_captured(self, manifest):
        assert "num_warps" in manifest["config"]
        assert "buffer_fraction" in manifest["config"]

    def test_roundtrip(self, manifest, tmp_path):
        path = obs.write_manifest(manifest, tmp_path / "m.json")
        assert obs.load_manifest(path) == manifest


class TestDiffManifests:
    def test_identical_is_clean(self, manifest):
        findings = obs.diff_manifests(manifest, manifest)
        assert [f for f in findings if f["regression"]] == []

    def test_doubled_page_faults_regress(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["counters"]["page_faults"] = (
            manifest["counters"]["page_faults"] * 2 + 100)
        findings = obs.diff_manifests(manifest, worse)
        bad = [f for f in findings if f["regression"]]
        assert any(f["name"] == "page_faults" for f in bad)

    def test_small_absolute_growth_is_under_the_floor(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["counters"]["kernel_launches"] = (
            manifest["counters"]["kernel_launches"] + 2)  # < floor of 8
        findings = obs.diff_manifests(manifest, worse)
        assert [f for f in findings if f["regression"]] == []

    def test_improvement_is_not_a_regression(self, manifest):
        better = copy.deepcopy(manifest)
        better["counters"]["page_faults"] = 0
        better["simulated_seconds"] = manifest["simulated_seconds"] / 2
        findings = obs.diff_manifests(manifest, better)
        assert [f for f in findings if f["regression"]] == []

    def test_sim_time_regression(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["simulated_seconds"] = manifest["simulated_seconds"] * 1.5
        findings = obs.diff_manifests(manifest, worse)
        assert any(f["regression"] and f["kind"] == "sim_time"
                   for f in findings)

    def test_threshold_is_tunable(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["simulated_seconds"] = manifest["simulated_seconds"] * 1.02
        loose = obs.diff_manifests(manifest, worse, time_threshold=0.05)
        tight = obs.diff_manifests(manifest, worse, time_threshold=0.01)
        assert not any(f["regression"] for f in loose)
        assert any(f["regression"] for f in tight)

    def test_missing_counter_is_treated_as_zero(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["counters"]["brand_new_counter"] = 100
        findings = obs.diff_manifests(manifest, worse)
        new = next(f for f in findings if f["name"] == "brand_new_counter")
        assert new["baseline"] == 0
        assert new["regression"]  # 0 -> 100 clears the absolute floor
        # ...but a tiny new counter stays under it.
        small = copy.deepcopy(manifest)
        small["counters"]["tiny_new_counter"] = 3
        assert [f for f in obs.diff_manifests(manifest, small)
                if f["regression"]] == []

    def test_nan_candidate_counter_fails_the_gate(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["counters"]["page_faults"] = float("nan")
        findings = obs.diff_manifests(manifest, worse)
        bad = next(f for f in findings if f["name"] == "page_faults")
        assert bad["regression"]
        assert bad["ratio"] is None

    def test_nan_baseline_counter_only_warns(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["counters"]["page_faults"] = float("nan")
        findings = obs.diff_manifests(broken, manifest)
        warn = next(f for f in findings if f["name"] == "page_faults")
        assert not warn["regression"]  # recovery must not fail the gate

    def test_nan_sim_time_fails_the_gate(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["simulated_seconds"] = float("nan")
        findings = obs.diff_manifests(manifest, worse)
        assert any(f["regression"] and f["kind"] == "sim_time"
                   for f in findings)

    def test_zero_baseline_sim_time_is_informational(self, manifest):
        zero = copy.deepcopy(manifest)
        zero["simulated_seconds"] = 0.0
        findings = obs.diff_manifests(zero, manifest)
        sim = next(f for f in findings if f["kind"] == "sim_time")
        assert not sim["regression"]
        assert sim["ratio"] is None

    def test_format_findings(self, manifest):
        worse = copy.deepcopy(manifest)
        worse["counters"]["page_faults"] = (
            manifest["counters"]["page_faults"] * 2 + 100)
        text = obs.format_findings(obs.diff_manifests(manifest, worse))
        assert "REGRESSION" in text
        assert "page_faults" in text
        assert obs.format_findings([]) == "no differences beyond thresholds"


class TestResilienceSection:
    @pytest.fixture()
    def faulted_manifest(self):
        from repro.algorithms import count_kcliques
        from repro.resilience import FaultPlan, FaultSpec

        graph = kronecker(7, 4, seed=3)
        with Gamma(graph) as engine:
            engine.platform.install_fault_plan(FaultPlan(
                name="stalls",
                specs=(FaultSpec(kind="pcie_stall", at="*/level:*",
                                 count=0, seconds=1e-4),)))
            count_kcliques(engine, 3)
            return obs.build_manifest(
                engine.platform, system="GAMMA", dataset="K7", task="kcl3")

    def test_absent_without_events(self, manifest):
        assert "resilience" not in manifest

    def test_events_and_rollup_recorded(self, faulted_manifest):
        section = faulted_manifest["resilience"]
        assert section["events"]
        assert all(e["type"] == "fault-injected" for e in section["events"])
        assert section["by_type"]["fault-injected:pcie_stall"] == len(
            section["events"])

    def test_diff_flags_new_event_type_as_regression(self, manifest,
                                                     faulted_manifest):
        from repro.obs.manifest import diff_manifests

        merged = copy.deepcopy(manifest)
        merged["resilience"] = faulted_manifest["resilience"]
        findings = diff_manifests(manifest, merged)
        res = [f for f in findings if f["kind"] == "resilience"]
        assert res and all(f["regression"] for f in res)

    def test_diff_fewer_firings_is_note_not_regression(self, faulted_manifest):
        from repro.obs.manifest import diff_manifests

        calmer = copy.deepcopy(faulted_manifest)
        key = "fault-injected:pcie_stall"
        calmer["resilience"]["by_type"][key] -= 1
        findings = diff_manifests(faulted_manifest, calmer)
        res = [f for f in findings if f["kind"] == "resilience"]
        assert res and not any(f["regression"] for f in res)
