"""Span-tree reassembly and critical-path analysis."""

import pytest

from repro import obs
from repro.gpusim import clock as clk
from repro.gpusim import make_platform
from repro.obs.profile import (
    SpanNode,
    build_tree,
    critical_path,
    critical_path_report,
    hot_subtrees,
    render_critical_path,
)


@pytest.fixture(autouse=True)
def clean_default_slot():
    yield
    obs.uninstall()


def _records():
    """A three-level tree: run > {setup, work > {kernel, kernel}}."""
    platform = make_platform()
    collector = obs.SpanCollector().attach(platform)
    with collector.span("setup"):
        platform.clock.advance(clk.HOST_PREP, 1e-3)
    with collector.span("work"):
        platform.clock.advance(clk.COMPUTE, 1e-3)
        with collector.span("kernel:a", kind="kernel"):
            platform.clock.advance(clk.COMPUTE, 4e-3)
        with collector.span("kernel:b", kind="kernel"):
            platform.clock.advance(clk.COMPUTE, 2e-3)
    collector.finish()
    return obs.span_tree_records(collector)


class TestSpanTree:
    def test_build_tree_reassembles_parents(self):
        root = build_tree(_records())
        assert root.name == "run"
        names = {node.name for node in root.walk()}
        assert {"run", "setup", "work", "kernel:a", "kernel:b"} <= names
        work = next(n for n in root.walk() if n.name == "work")
        assert {c.name for c in work.children} == {"kernel:a", "kernel:b"}

    def test_paths_are_slash_joined_and_depth_counted(self):
        root = build_tree(_records())
        kernel = next(n for n in root.walk() if n.name == "kernel:a")
        assert kernel.path == "run/work/kernel:a"
        assert kernel.depth == 2
        assert root.depth == 0

    def test_empty_tree(self):
        assert build_tree([]) is None


class TestCriticalPath:
    def test_descends_into_heaviest_child(self):
        rows = critical_path(_records())
        assert [r["name"] for r in rows] == ["run", "work", "kernel:a"]
        assert rows[-1]["inclusive"] == pytest.approx(4e-3)

    def test_shares_are_relative_to_root(self):
        rows = critical_path(_records())
        assert rows[0]["share"] == pytest.approx(1.0)
        assert rows[1]["share"] == pytest.approx(7 / 8)

    def test_hot_subtrees_rank_by_self_time(self):
        rows = hot_subtrees(_records(), top=3)
        assert rows[0]["path"] == "run/work/kernel:a"
        assert rows[0]["self"] == pytest.approx(4e-3)
        assert sum(r["share"] for r in rows) <= 1.0 + 1e-9

    def test_report_and_render(self):
        report = critical_path_report(_records())
        assert report["schema"] == "gamma-critical-path/1"
        text = render_critical_path(_records())
        assert "critical path" in text
        assert "kernel:a" in text

    def test_empty_records(self):
        assert critical_path([]) == []
        assert "no spans" in render_critical_path([])


class TestSpanNodeFromRecord:
    def test_defaults_for_sparse_record(self):
        node = SpanNode({"index": 0, "name": "x"})
        assert node.parent == -1
        assert node.sim_seconds == 0.0
        assert node.counters == {}
