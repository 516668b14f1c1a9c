"""Exit-code contract of the tools/obs_diff.py regression gate."""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import obs
from repro.algorithms import triangle_count
from repro.core import Gamma
from repro.graph import kronecker

REPO_ROOT = pathlib.Path(__file__).parents[2]
TOOL = REPO_ROOT / "tools" / "obs_diff.py"


def _run_tool(*argv):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, argv)],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    graph = kronecker(7, 4, seed=3)
    collector = obs.install(obs.SpanCollector())
    with Gamma(graph) as engine:
        triangle_count(engine)
        collector.finish()
        manifest = obs.build_manifest(
            engine.platform, collector,
            system="GAMMA", dataset="K7", task="triangles")
    obs.uninstall()
    path = tmp_path_factory.mktemp("manifests") / "base.json"
    obs.write_manifest(manifest, path)
    return path


def _regressed_copy(manifest_path, target):
    manifest = json.loads(manifest_path.read_text())
    worse = copy.deepcopy(manifest)
    worse["counters"]["page_faults"] = (
        worse["counters"].get("page_faults", 0) * 2 + 100)
    target.write_text(json.dumps(worse))
    return target


class TestObsDiffTool:
    def test_identical_manifests_exit_zero(self, manifest_path):
        proc = _run_tool(manifest_path, manifest_path)
        assert proc.returncode == 0, proc.stderr
        assert "within thresholds" in proc.stdout

    def test_injected_regression_exits_nonzero(self, manifest_path, tmp_path):
        worse = _regressed_copy(manifest_path, tmp_path / "worse.json")
        proc = _run_tool(manifest_path, worse)
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "page_faults" in proc.stdout

    def test_warn_only_exits_zero(self, manifest_path, tmp_path):
        worse = _regressed_copy(manifest_path, tmp_path / "worse.json")
        proc = _run_tool(manifest_path, worse, "--warn-only")
        assert proc.returncode == 0

    def test_manifestless_baseline_is_skipped(self, manifest_path, tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"schema": 1, "workloads": []}))
        proc = _run_tool(legacy, manifest_path)
        assert proc.returncode == 0
        assert "nothing to gate" in proc.stdout

    def test_disjoint_workloads_compare_nothing(self, manifest_path, tmp_path):
        manifest = json.loads(manifest_path.read_text())
        other = copy.deepcopy(manifest)
        other["dataset"] = "ZZ"
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        proc = _run_tool(manifest_path, other_path)
        assert proc.returncode == 0
        assert "no comparable manifests" in proc.stdout

    def test_manifestless_candidate_exits_two_strict(self, manifest_path,
                                                     tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        proc = _run_tool(manifest_path, empty)
        assert proc.returncode == 2
        # ...but warn-only reports and succeeds (bedding-in mode).
        proc = _run_tool(manifest_path, empty, "--warn-only")
        assert proc.returncode == 0

    def test_named_exit_code_constants(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location("obs_diff", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert (module.EXIT_OK, module.EXIT_REGRESSIONS,
                module.EXIT_NO_CANDIDATE) == (0, 1, 2)
