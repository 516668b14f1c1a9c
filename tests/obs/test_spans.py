"""Span-tree semantics, the null fast path, and the partition invariant."""

import pytest

from repro import obs
from repro.algorithms import count_kcliques, graphlet_census, motif_count, triangle_count
from repro.core import Gamma
from repro.graph import kronecker
from repro.gpusim import clock as clk
from repro.gpusim import make_platform
from repro.obs.spans import NULL_TELEMETRY, _default_collector


@pytest.fixture(autouse=True)
def clean_default_slot():
    yield
    obs.uninstall()


class TestNullTelemetry:
    def test_inert_interface(self):
        assert NULL_TELEMETRY.active is False
        span = NULL_TELEMETRY.span("anything", kind="phase", level=3, x=1)
        assert NULL_TELEMETRY.span("other") is span, "must be one cached CM"
        with span:
            pass
        NULL_TELEMETRY.metric("m", 1.0, label="x")
        NULL_TELEMETRY.gauge("g", lambda: 1)

    def test_platform_default(self):
        platform = make_platform()
        assert platform.telemetry is NULL_TELEMETRY
        assert platform.kernel.telemetry is NULL_TELEMETRY


class TestSpanCollector:
    def test_deltas_inclusive_and_self(self):
        platform = make_platform()
        collector = obs.SpanCollector().attach(platform)
        with collector.span("phase-a"):
            platform.clock.advance(clk.COMPUTE, 1.0)
            platform.counters.add("widgets", 5)
            with collector.span("inner", kind="kernel"):
                platform.clock.advance(clk.COMPUTE, 2.0)
                platform.counters.add("widgets", 7)
        collector.finish()
        by_name = {s.name: s for s in collector.walk()}
        outer, inner = by_name["phase-a"], by_name["inner"]
        assert outer.counters["widgets"] == 12          # inclusive
        assert outer.counters_self.get("widgets", 0) == 5
        assert inner.counters["widgets"] == 7
        assert outer.sim_buckets[clk.COMPUTE] == pytest.approx(3.0)
        assert outer.sim_self[clk.COMPUTE] == pytest.approx(1.0)
        assert inner.depth == outer.depth + 1
        assert inner.parent == outer.index

    def test_root_span_opens_on_bind(self):
        platform = make_platform()
        collector = obs.SpanCollector().attach(platform)
        assert collector.root is not None
        assert collector.root.name == "run"
        assert collector.root.kind == "run"

    def test_bind_twice_raises(self):
        collector = obs.SpanCollector().attach(make_platform())
        with pytest.raises(RuntimeError):
            collector.bind(make_platform())

    def test_finish_is_idempotent_and_detaches(self):
        platform = make_platform()
        collector = obs.SpanCollector().attach(platform)
        collector.finish()
        collector.finish()
        assert platform.telemetry is NULL_TELEMETRY
        assert collector.root.t1 >= collector.root.t0

    def test_out_of_order_exit_is_tolerated(self):
        platform = make_platform()
        collector = obs.SpanCollector().attach(platform)
        outer_cm = collector.span("outer")
        inner_cm = collector.span("inner")
        outer_cm.__enter__()
        inner_cm.__enter__()
        outer_cm.__exit__(None, None, None)  # closes inner first
        collector.finish()
        by_name = {s.name: s for s in collector.walk()}
        assert by_name["inner"].t1 <= by_name["outer"].t1

    def test_metric_tags_open_span(self):
        collector = obs.SpanCollector().attach(make_platform())
        with collector.span("p") as span:
            collector.metric("extension.rows_out", 42, level=1)
        sample = collector.metrics.samples[-1]
        assert sample.span == span.index
        assert sample.labels == {"level": 1}


class TestDefaultSlot:
    def test_install_adopts_next_platform(self):
        collector = obs.install(obs.SpanCollector())
        platform = make_platform()
        assert platform.telemetry is collector
        second = make_platform()  # first platform wins
        assert second.telemetry is NULL_TELEMETRY
        collector.finish()
        assert _default_collector() is None

    def test_uninstall_other_collector_is_noop(self):
        collector = obs.install(obs.SpanCollector())
        obs.uninstall(obs.SpanCollector())
        assert _default_collector() is collector


class TestPartitionInvariant:
    """Self deltas summed over the tree == the platform's global totals."""

    def _run(self, task):
        graph = kronecker(7, 4, seed=3)
        collector = obs.install(obs.SpanCollector())
        with Gamma(graph) as engine:
            task(engine)
            collector.finish()
            counters = engine.platform.counters.snapshot(include_zero=False)
            sim_total = engine.platform.clock.total
        return collector, counters, sim_total

    def test_counter_partition_triangles(self):
        collector, counters, _ = self._run(triangle_count)
        assert collector.self_counter_totals() == counters

    def test_sim_time_partition_kcl(self):
        collector, _, sim_total = self._run(
            lambda e: count_kcliques(e, 4))
        totals = collector.self_sim_totals()
        assert sum(totals.values()) == pytest.approx(sim_total, abs=1e-9)

    @pytest.mark.parametrize("task, names", [
        (lambda e: count_kcliques(e, 4), ["seed:vertex"] + ["extend-vertices"] * 3),
        (lambda e: motif_count(e, 3), ["seed:edge"] + ["extend-edges"] * 2),
        (lambda e: graphlet_census(e, 4), ["seed:vertex"] + ["extend-vertices-any"] * 3),
    ], ids=["kcl4", "motif3", "graphlets4"])
    def test_every_level_opens_its_own_span(self, task, names):
        """Each seed and extension entry point runs under a ``level`` span,
        so a level's charges are its own, not the enclosing phase's."""
        collector, _, _ = self._run(task)
        levels = [s for s in collector.walk() if s.kind == "level"]
        assert [(s.name, s.level) for s in levels] == list(zip(names, range(len(names))))
        assert all(sum(s.sim_self.values()) > 0 for s in levels)

    def test_tree_has_at_least_three_depths(self):
        collector, _, _ = self._run(triangle_count)
        assert collector.max_depth() >= 3
        kinds = {s.kind for s in collector.walk()}
        assert {"run", "phase", "kernel"} <= kinds
