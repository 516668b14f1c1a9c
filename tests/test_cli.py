"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph import datasets


@pytest.fixture(autouse=True)
def clear_dataset_cache():
    yield
    datasets.clear_cache()


class TestDatasetsCommand:
    def test_prints_table2(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cit-Patent" in out
        assert "twitter_rv" in out


class TestSystemsCommand:
    def test_lists_all_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("GAMMA", "Pangolin-GPU", "Peregrine", "GSI"):
            assert name in out


class TestRunCommand:
    def test_sm(self, capsys):
        code = main(["run", "--task", "sm", "--query", "1",
                     "--dataset", "ER", "--system", "GAMMA"])
        assert code == 0
        out = capsys.readouterr().out
        assert "embeddings" in out
        assert "simulated time" in out

    def test_sm_symmetry_breaking(self, capsys):
        code = main(["run", "--task", "sm", "--query", "1",
                     "--dataset", "ER", "--symmetry-breaking"])
        assert code == 0

    def test_kcl(self, capsys):
        assert main(["run", "--task", "kcl", "--k", "3",
                     "--dataset", "ER"]) == 0
        assert "3-cliques" in capsys.readouterr().out

    def test_triangles_on_baseline(self, capsys):
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--system", "Peregrine"]) == 0

    def test_fpm_with_catalog_names(self, capsys):
        assert main(["run", "--task", "fpm", "--dataset", "ER",
                     "--min-support", "3"]) == 0
        out = capsys.readouterr().out
        assert "edge[" in out or "wedge[" in out or "edge" in out

    def test_fpm_mni(self, capsys):
        assert main(["run", "--task", "fpm", "--dataset", "ER",
                     "--min-support", "2", "--metric", "mni"]) == 0

    def test_motifs(self, capsys):
        assert main(["run", "--task", "motifs", "--edges", "2",
                     "--dataset", "ER"]) == 0
        assert "instances" in capsys.readouterr().out

    def test_crash_returns_nonzero(self, capsys):
        code = main(["run", "--task", "kcl", "--k", "4",
                     "--dataset", "CL", "--system", "Pangolin-GPU"])
        assert code == 1
        assert "CRASH" in capsys.readouterr().out

    def test_unknown_system(self, capsys):
        code = main(["run", "--task", "sm", "--system", "HAL9000",
                     "--dataset", "ER"])
        assert code == 2

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--task", "alchemy"])


class TestFigureCommand:
    def test_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestGraphletsCommand:
    def test_graphlets(self, capsys):
        assert main(["run", "--task", "graphlets", "--k", "3",
                     "--dataset", "ER"]) == 0
        out = capsys.readouterr().out
        assert "graphlets" in out
        assert "induced occurrences" in out

    def test_breakdown_flag(self, capsys):
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "where the time went" in out
        assert "compute" in out


class TestObservabilityFlags:
    def test_profile_flag(self, capsys):
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock profile" in out
        assert "where the time went" in out  # --profile implies the breakdown
        for phase in ("load-dataset", "build-engine", "run-task", "total"):
            assert phase in out

    def test_trace_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--trace-out", str(path)]) == 0
        trace = json.loads(path.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events, "trace has no complete events"
        names = {e["name"] for e in events}
        assert "run" in names
        # run -> phase -> level -> kernel: at least three span kinds deep.
        kinds = {e["args"]["kind"] for e in events}
        assert {"run", "phase", "kernel"} <= kinds
        assert "trace written to" in capsys.readouterr().out

    def test_metrics_out_is_json_lines(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.jsonl"
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--metrics-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        samples = [json.loads(line) for line in lines]
        assert all({"name", "value"} <= set(s) for s in samples)
        assert any(s["name"] == "extension.rows_out" for s in samples)

    def test_manifest_out_and_report(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--manifest-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dataset=ER" in out
        assert "task=kcl" in out
        assert "counters:" in out
        assert "simulated time" in out

    def test_report_against_identical_passes(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--manifest-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path), "--against", str(path)]) == 0
        assert "no differences beyond thresholds" in capsys.readouterr().out

    def test_report_against_regressed_fails(self, capsys, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--manifest-out", str(path)]) == 0
        manifest = json.loads(path.read_text())
        manifest["counters"]["page_faults"] = (
            manifest["counters"].get("page_faults", 0) * 2 + 1000
        )
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", str(worse), "--against", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def kcl_manifest(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "kcl.json"
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--manifest-out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("side", ["manifest", "baseline"])
    @pytest.mark.parametrize(
        "kind", ["missing", "not-json", "empty-object", "other-schema"])
    def test_report_rejects_bad_input(self, capsys, tmp_path, kcl_manifest,
                                      side, kind):
        bad = tmp_path / f"{kind}.json"
        contents = {
            "not-json": "manifest.json\n",
            "empty-object": "{}",
            "other-schema": '{"schema": "gamma-plan/1", "counters": {}}',
        }
        if kind in contents:
            bad.write_text(contents[kind])
        argv = (["report", str(bad)] if side == "manifest"
                else ["report", str(kcl_manifest), "--against", str(bad)])
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{bad}: ")

    def test_report_reads_shard_manifests(self, capsys, tmp_path):
        path = tmp_path / "sharded.json"
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--gpus", "2", "--manifest-out", str(path)]) == 0
        assert '"gamma-shard-manifest/' in path.read_text()
        capsys.readouterr()
        assert main(["report", str(path), "--against", str(path)]) == 0
        assert "no differences beyond thresholds" in capsys.readouterr().out

    def test_report_against_a_different_run_exits_two(self, capsys, tmp_path,
                                                      kcl_manifest):
        import json

        other = json.loads(kcl_manifest.read_text())
        other["dataset"] = "ZZ"
        other["counters"]["page_faults"] = 10 ** 9
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        capsys.readouterr()
        assert main(["report", str(other_path),
                     "--against", str(kcl_manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "REGRESSION" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "GAMMA/ER/kcl" in captured.err and "GAMMA/ZZ/kcl" in captured.err

    def test_crash_path_detaches_collector(self, capsys, tmp_path):
        from repro import obs

        path = tmp_path / "trace.json"
        code = main(["run", "--task", "kcl", "--k", "4", "--dataset", "CL",
                     "--system", "Pangolin-GPU", "--trace-out", str(path)])
        assert code == 1
        # The collector must not linger as the process default after a
        # crash, or it would silently adopt the next platform constructed.
        assert obs.spans._default_collector() is None


class TestProfilingFlags:
    def test_critical_path_flag(self, capsys):
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path (simulated time):" in out
        assert "hot subtrees" in out


class TestShardedRun:
    def test_gpus_flag_runs_sharded(self, capsys):
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--gpus", "4", "--shard-policy", "stealing"]) == 0
        out = capsys.readouterr().out
        assert "shards: 4 (stealing, nvlink)" in out
        assert "utilization:" in out

    def test_sharded_counts_match_single_gpu(self, capsys):
        assert main(["run", "--task", "triangles", "--dataset", "ER"]) == 0
        single = capsys.readouterr().out
        assert main(["run", "--task", "triangles", "--dataset", "ER",
                     "--gpus", "2", "--interconnect", "pcie"]) == 0
        sharded = capsys.readouterr().out
        line = next(l for l in single.splitlines() if "triangles:" in l)
        assert line in sharded

    def test_sharded_manifest_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        assert main(["run", "--task", "kcl", "--k", "3", "--dataset", "ER",
                     "--gpus", "2", "--manifest-out", str(path)]) == 0
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == "gamma-shard-manifest/v1"
        assert manifest["num_shards"] == 2
        assert len(manifest["shards"]) == 2
        assert len(manifest["utilization"]) == 2

    def test_gpus_needs_gamma(self, capsys):
        assert main(["run", "--task", "kcl", "--dataset", "ER",
                     "--system", "Peregrine", "--gpus", "2"]) == 2
        assert "--gpus needs the GAMMA engine" in capsys.readouterr().err


class TestPlanFlags:
    def test_run_plan_auto_matches_baseline_counts(self, capsys):
        assert main(["run", "--task", "sm", "--query", "1",
                     "--dataset", "ER"]) == 0
        base = capsys.readouterr().out
        assert main(["run", "--task", "sm", "--query", "1",
                     "--dataset", "ER", "--plan", "auto"]) == 0
        auto = capsys.readouterr().out
        base_line = next(l for l in base.splitlines() if "embeddings" in l)
        assert base_line in auto
        assert "plan:" in auto          # provenance printed for non-baseline

    def test_run_plan_baseline_prints_no_plan_line(self, capsys):
        assert main(["run", "--task", "sm", "--query", "1",
                     "--dataset", "ER", "--plan", "baseline"]) == 0
        assert "plan:" not in capsys.readouterr().out

    def test_plan_cache_dir_hits_across_runs(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "plans")
        args = ["run", "--task", "motifs", "--dataset", "ER",
                "--plan", "auto", "--plan-cache-dir", cache_dir]
        assert main(args) == 0
        assert "misses=1" in capsys.readouterr().out
        assert main(args) == 0
        assert "hits=1" in capsys.readouterr().out

    def test_plan_flags_rejected_for_unplanned_tasks(self, capsys):
        assert main(["run", "--task", "graphlets", "--dataset", "ER",
                     "--plan", "auto"]) == 2
        assert "--plan" in capsys.readouterr().err

    def test_bad_plan_file_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--task", "sm", "--dataset", "ER",
                     "--plan", str(bad)]) == 2
        assert "bad --plan" in capsys.readouterr().err

    def test_manifest_records_plan_block(self, capsys, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        assert main(["run", "--task", "fpm", "--dataset", "ER",
                     "--min-support", "2", "--plan", "auto",
                     "--manifest-out", str(path)]) == 0
        doc = json.loads(path.read_text())["extra"]["plan"]
        assert doc["id"]
        assert doc["source"] in ("auto", "hint")
        assert doc["actual_seconds"] > 0


class TestPlanExplainCommand:
    def test_explain_prints_and_saves(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        assert main(["plan", "explain", "--task", "sm", "--query", "2",
                     "--dataset", "ER", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "task=sm" in out and "order:" in out
        assert out_path.exists()
        # The saved plan runs through `repro run --plan <file>`.
        assert main(["run", "--task", "sm", "--query", "2",
                     "--dataset", "ER", "--plan", str(out_path)]) == 0
        assert "[file]" in capsys.readouterr().out

    def test_explain_baseline_mode(self, capsys):
        assert main(["plan", "explain", "--task", "fpm", "--dataset", "ER",
                     "--plan", "baseline"]) == 0
        assert "[baseline]" in capsys.readouterr().out

    def test_explain_wrong_pattern_file_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "q1.json"
        assert main(["plan", "explain", "--task", "sm", "--query", "1",
                     "--dataset", "ER", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["plan", "explain", "--task", "sm", "--query", "2",
                     "--dataset", "ER", "--plan", str(out_path)]) == 2
        assert "bad --plan" in capsys.readouterr().err
