"""Span arithmetic, and that the wrappers leave no trace of themselves."""

import sys
import time

import pytest

from benchmarks.perf import trace


def _nested_spans():
    """root(query) -> a -> b, and root -> c; a thread-local stack like the real one."""
    tracer = trace.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "b", "layer.b")
    middle = tracer.wrap(lambda: (time.sleep(0.001), leaf(), leaf()), "a", "layer.a")
    other = tracer.wrap(lambda: time.sleep(0.001), "c", "layer.c")
    for query in range(3):
        tracer.begin("query", trace.ROOT_METRIC, query_id=query)
        middle()
        other()
        time.sleep(0.001)
        tracer.end()
    return tracer.spans


def test_self_times_partition_the_root():
    spans = _nested_spans()
    selfs = trace.self_times(spans)
    by_id = {span[0]: span for span in spans}
    for span in spans:
        children = [s for s in spans if s[5] == span[0]]
        covered = sum(child[4] - child[3] for child in children)
        assert covered <= (span[4] - span[3]) + 1e-9, "children exceed their parent"
        assert selfs[span[0]] >= -1e-9
        if span[5] != -1:
            parent = by_id[span[5]]
            assert parent[3] <= span[3] and span[4] <= parent[4]
            assert span[6] == parent[6], "a child carries its root's query id"
    roots = [span for span in spans if span[5] == -1]
    assert len(roots) == 3
    assert sum(selfs.values()) == pytest.approx(sum(r[4] - r[3] for r in roots))


def test_layer_totals_and_unattributed_frac():
    # Hand-made spans: (id, name, metric, start, end, parent, query_id, counts).
    spans = [
        (1, "x", "layer.x", 1.0, 4.0, 0, "q", {"rows": 5}),
        (2, "y", "layer.y", 2.0, 3.0, 1, "q", None),
        (3, "x", "layer.x", 5.0, 9.0, 0, "q", {"rows": 7}),
        (0, "query", trace.ROOT_METRIC, 0.0, 10.0, -1, "q", None),
    ]
    totals = trace.layer_totals(spans)
    assert totals["layer.x"] == {"self_s": 2.0 + 4.0, "calls": 2, "rows": 12}
    assert totals["layer.y"] == {"self_s": 1.0, "calls": 1}
    # 10 s of query, 3 + 4 covered by wrapper spans: 3 s are nobody's.
    assert trace.unattributed_frac(spans) == pytest.approx(0.3)
    assert trace.unattributed_frac([]) == 0.0


def test_layer_metrics_leave_out_spans_of_no_counted_query():
    # One rooted query, and a call made by a query that began before the
    # wrappers went in (no root, no query id).
    spans = [
        (0, "query", trace.ROOT_METRIC, 0.0, 10.0, -1, "q", None),
        (1, "has_edges", "graph.has_edges", 1.0, 4.0, 0, "q", {"pairs": 5}),
        (2, "has_edges", "graph.has_edges", 11.0, 19.0, -1, None, {"pairs": 9}),
    ]
    metrics = trace.layer_metrics(spans, 1, 10.0)
    assert metrics["graph.has_edges_s"] == 3.0 and metrics["graph.has_edges_pairs"] == 5
    assert metrics["obs.unattributed_frac"] == pytest.approx(0.7)


def test_install_refuses_a_metric_nothing_reports(monkeypatch):
    from repro.graph.csr import CSRGraph

    original = CSRGraph.__dict__["has_edges"]
    monkeypatch.setattr(trace, "targets",
                        lambda: [(CSRGraph, "has_edges", "graph.has_edgs", None)])
    with pytest.raises(KeyError, match="has_edgs"):
        trace.install(trace.Tracer())
    assert CSRGraph.__dict__["has_edges"] is original


def test_measure_sees_the_result_and_is_nobodys_layer_time():
    tracer = trace.Tracer()

    def slow_count(args, result):
        time.sleep(0.005)
        return {"n": args[0], "len": len(result)}

    wrapped = tracer.wrap(lambda n: list(range(n)), "f", "layer.f", measure=slow_count)
    tracer.begin("query", trace.ROOT_METRIC, query_id=0)
    assert wrapped(4) == [0, 1, 2, 3]
    tracer.end()
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["f"][7] == {"n": 4, "len": 4}
    # The counting happened after f's clock stopped, in a span of its own
    # under f's parent: neither f nor the root's self time holds it.
    measure, root = by_name["measure"], by_name["query"]
    assert measure[2] == trace.MEASURE_METRIC and measure[5] == root[0]
    assert measure[3] == by_name["f"][4] and measure[4] - measure[3] >= 0.005
    assert trace.self_times(tracer.spans)[root[0]] < 0.004


def test_a_raising_callable_still_closes_its_span():
    tracer = trace.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom", "layer.f")()
    assert len(tracer.spans) == 1 and tracer.open_spans() == 0


def test_install_then_uninstall_restores_the_very_same_objects():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, __, __ in trace.targets()]
    tracer = trace.Tracer()
    installed = trace.install(tracer)
    assert all(owner.__dict__[attr] is not original for owner, attr, original in before)
    # Functions imported by name elsewhere were replaced there too.
    aggregation, sort = sys.modules["repro.core.aggregation"], sys.modules["repro.core.sort"]
    assert aggregation.sort_and_count is sort.sort_and_count
    assert (aggregation, "sort_and_count") in [pair[:2] for pair in installed]
    trace.uninstall(installed)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
    for holder, attr, original in installed:
        assert holder.__dict__[attr] is original
