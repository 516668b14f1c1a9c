"""Spans around the public callables of each layer, recorded from outside.

``install(tracer)`` replaces each callable in :func:`targets` with a timing
wrapper and returns what ``uninstall`` needs to put the originals back (the
very same objects).  A span is ``(id, name, metric, start, end, parent,
query_id, counts)``; spans nest per thread, so a span's *self time* is its
duration minus its children's, and the self times of a query's spans sum to
the duration of its root.  Nothing is written until the leg ends
(:func:`write_spans`).

``metric`` is the per-layer metric a span's self time is added to
(``graph.has_edges`` -> ``graph.has_edges_s`` / ``graph.has_edges_calls``).
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import sys
import threading
from importlib import import_module
from time import perf_counter

#: Root spans opened by the harness itself; their self time is the query wall
#: no wrapper covers (``obs.unattributed_frac``).
ROOT_METRIC = "harness.query"
#: Time the wrappers spend counting (rows, pairs, reply bytes).
MEASURE_METRIC = "harness.measure"
#: Every metric a span may carry; ``install`` refuses any other, so a typo in
#: :func:`targets` cannot turn a layer's time into a silent zero.
SPAN_METRICS = frozenset({
    ROOT_METRIC, MEASURE_METRIC, "graph.has_edges", "graph.canonical", "core.vertex_ext",
    "core.edge_ext", "core.aggregation", "core.sort", "core.filtering", "core.table",
    "core.engine_fixed", "gpusim.charge", "gpusim.kernel_launch", "algorithms.driver",
    "resilience.checkpoint", "shard.reset", "shard.fanout", "shard.table_parts",
    "shard.coordinator"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._stacks: dict = {}  # thread ident -> its open spans

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def begin(self, name: str, metric: str, query_id=None) -> None:
        """Open a span on this thread (a root span when the stack is empty)."""
        stack = self._stack()
        if query_id is None:
            query_id = stack[-1][4] if stack else None
        parent = stack[-1][0] if stack else -1
        stack.append([next(self._ids), name, metric, parent, query_id, perf_counter()])

    def end(self, measure=None) -> None:
        """Close the innermost span; ``measure()`` (its counts) runs after the
        clock is read."""
        end = perf_counter()
        span_id, name, metric, parent, query_id, start = self._stack().pop()
        counts = None
        if measure is not None:
            counts = measure()
            # Counting is the harness's time, not the caller's: give it a span
            # of its own beside this one so no layer's self time absorbs it.
            self.spans.append((next(self._ids), "measure", MEASURE_METRIC, end,
                               perf_counter(), parent, query_id, None))
        self.spans.append((span_id, name, metric, start, end, parent, query_id, counts))

    def open_spans(self) -> int:
        """How many spans this thread has open."""
        return len(self._stack())

    def busy(self) -> bool:
        """Does any thread have a span open?"""
        return any(self._stacks.values())

    def wrap(self, fn, name: str, metric: str, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name, metric)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end()
                raise
            if measure is None:
                tracer.end()
            else:
                tracer.end(lambda: measure(args, result))
            return result

        return wrapper


# -- what gets wrapped ---------------------------------------------------------------
def _rows_out(args, stats):
    return {"rows_out": int(stats.rows_out)}


def _pairs(args, result):
    return {"pairs": int(len(args[1]))}


def _distinct_codes(args, result):
    return {"distinct": int(args[0].cache_size)}


def _reply_bytes(args, result):
    return {"reply_bytes": len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))}


def targets() -> list:
    """``(owner, attribute, metric, measure)`` for every wrapped callable."""
    # Modules by full name: packages re-export functions under submodule names
    # (``repro.core.aggregation`` the attribute is a function, not the module).
    fpm, kclique, subgraph_matching, sort, canonical, runner = (
        import_module(f"repro.{name}") for name in (
            "algorithms.fpm", "algorithms.kclique", "algorithms.subgraph_matching",
            "core.sort", "graph.canonical", "resilience.runner"))
    from repro.core.embedding_table import EmbeddingTable
    from repro.core.framework import Gamma
    from repro.gpusim.kernel import KernelLauncher
    from repro.gpusim.regions import HostRegion
    from repro.graph.canonical import QuickPatternEncoder
    from repro.graph.csr import CSRGraph
    from repro.resilience.checkpoint import CheckpointManager
    from repro.shard import ProcessExecutor, SerialExecutor, ShardedGamma

    out = [
        (CSRGraph, "has_edges", "graph.has_edges", _pairs),
        (QuickPatternEncoder, "encode_edge_embeddings", "graph.canonical", _distinct_codes),
        (canonical, "canonical_form", "graph.canonical", None),
        (Gamma, "vertex_extension", "core.vertex_ext", _rows_out),
        (Gamma, "vertex_extension_any", "core.vertex_ext", _rows_out),
        (Gamma, "edge_extension", "core.edge_ext", _rows_out),
        (Gamma, "aggregation", "core.aggregation", None),
        (Gamma, "dedup", "core.aggregation", None),
        (sort, "out_of_core_sort", "core.sort", None),
        (sort, "sort_and_count", "core.sort", None),
        (Gamma, "filtering", "core.filtering", None),
        (KernelLauncher, "launch", "gpusim.kernel_launch", None),
        (subgraph_matching, "match_pattern", "algorithms.driver", None),
        (kclique, "count_kcliques", "algorithms.driver", None),
        (fpm, "frequent_pattern_mining", "algorithms.driver", None),
        (Gamma, "enable_checkpointing", "resilience.checkpoint", None),
        (runner, "capture_state", "resilience.checkpoint", None),
        (CheckpointManager, "save", "resilience.checkpoint", None),
    ]
    for attr in ("append_column", "compact", "materialize"):
        out.append((EmbeddingTable, attr, "core.table", None))
    for attr in ("__init__", "new_vertex_table", "new_edge_table", "seed_vertices",
                 "seed_edges", "output_results", "close"):
        out.append((Gamma, attr, "core.engine_fixed", None))
    for attr in ("gather", "gather_ranges", "charge_ranges", "read_range"):
        out.append((HostRegion, attr, "gpusim.charge", None))
    for attr in ("__init__", "new_vertex_table", "new_edge_table", "seed_vertices",
                 "seed_edges", "vertex_extension", "vertex_extension_any",
                 "edge_extension", "dedup", "aggregation", "filtering",
                 "output_results", "shard_states", "close"):
        out.append((ShardedGamma, attr, "shard.coordinator", None))
    for executor in (SerialExecutor, ProcessExecutor):
        # Reply sizes only where replies are pickled over a pipe.
        measure = _reply_bytes if executor is ProcessExecutor else None
        out.append((executor, "fanout", "shard.fanout", measure))
        out.append((executor, "call", "shard.fanout", measure))
        out.append((executor, "table_parts", "shard.table_parts", None))
        # Per-query pool re-arm: a warm start() is a reset(); shutdown() of a
        # reusable pool is a no-op.
        out.append((executor, "start", "shard.reset", None))
        out.append((executor, "shutdown", "shard.reset", None))
    out.append((ProcessExecutor, "reset", "shard.reset", None))
    return out


def _holders(owner, attr: str, original) -> list:
    """``owner`` plus, for a module-level function, every loaded ``repro``
    module that imported it by name (``from .sort import sort_and_count``)."""
    if isinstance(owner, type):
        return [owner]
    holders = [owner]
    for name, module in list(sys.modules.items()):
        if (module is not None and module is not owner
                and (name == "repro" or name.startswith("repro."))
                and module.__dict__.get(attr) is original):
            holders.append(module)
    return holders


def install(tracer: Tracer) -> list:
    """Wrap every target; returns ``[(holder, attribute, original), ...]``."""
    wanted = targets()
    unknown = {metric for __, __, metric, __ in wanted} - SPAN_METRICS
    if unknown:
        raise KeyError(f"not span metrics: {sorted(unknown)}")
    installed = []
    for owner, attr, metric, measure in wanted:
        original = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}".replace("repro.", "")
        wrapper = tracer.wrap(original, name, metric, measure)
        for holder in _holders(owner, attr, original):
            setattr(holder, attr, wrapper)
            installed.append((holder, attr, original))
    return installed


def uninstall(installed: list) -> None:
    for holder, attr, original in reversed(installed):
        setattr(holder, attr, original)


# -- reading spans ---------------------------------------------------------------------
def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    out = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        if span[5] in out:
            out[span[5]] -= span[4] - span[3]
    return out


def layer_totals(spans) -> dict:
    """Per metric: summed self seconds, calls, and summed counts."""
    selfs = self_times(spans)
    totals: dict = {}
    for span in spans:
        entry = totals.setdefault(span[2], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[span[0]]
        entry["calls"] += 1
        for key, value in (span[7] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def unattributed_frac(spans) -> float:
    """Share of the root spans' wall time that no wrapper span covers."""
    selfs = self_times(spans)
    roots = [span for span in spans if span[2] == ROOT_METRIC]
    wall = sum(span[4] - span[3] for span in roots)
    return sum(selfs[span[0]] for span in roots) / wall if wall else 0.0


def layer_metrics(spans, count: int, wall_s: float) -> dict:
    """The span-derived per-layer metrics: means per query over ``count``
    queries that took ``wall_s`` seconds together.

    Spans outside any root (a served query a worker picked up before the
    wrappers went in has none) belong to no counted query and are left out.
    """
    spans = [span for span in spans if span[6] is not None]
    totals = layer_totals(spans)

    def per(metric, field="self_s"):
        if metric not in SPAN_METRICS:
            raise KeyError(f"{metric!r} is not a span metric")
        return totals.get(metric, {}).get(field, 0) / count

    rows_out = per("core.vertex_ext", "rows_out") + per("core.edge_ext", "rows_out")
    return {
        "graph.has_edges_s": per("graph.has_edges"),
        "graph.has_edges_calls": per("graph.has_edges", "calls"),
        "graph.has_edges_pairs": per("graph.has_edges", "pairs"),
        "graph.canonical_s": per("graph.canonical"),
        "graph.canonical_calls": per("graph.canonical", "calls"),
        "graph.canonical_distinct": per("graph.canonical", "distinct"),
        "core.vertex_ext_s": per("core.vertex_ext"),
        "core.vertex_ext_calls": per("core.vertex_ext", "calls"),
        "core.vertex_ext_rows_out": per("core.vertex_ext", "rows_out"),
        "core.edge_ext_s": per("core.edge_ext"),
        "core.edge_ext_rows_out": per("core.edge_ext", "rows_out"),
        "core.aggregation_s": per("core.aggregation"),
        "core.sort_s": per("core.sort"),
        "core.filtering_s": per("core.filtering"),
        "core.table_s": per("core.table"),
        "core.engine_fixed_s": per("core.engine_fixed"),
        "core.rows_per_s": rows_out * count / wall_s if wall_s else 0.0,
        "gpusim.charge_s": per("gpusim.charge"),
        "gpusim.charge_calls": per("gpusim.charge", "calls"),
        "gpusim.kernel_launch_s": per("gpusim.kernel_launch"),
        "gpusim.kernel_launches": per("gpusim.kernel_launch", "calls"),
        "algorithms.driver_self_s": per("algorithms.driver"),
        "resilience.checkpoint_s": per("resilience.checkpoint"),
        "shard.reset_s": per("shard.reset"),
        "shard.fanout_s": per("shard.fanout"),
        "shard.fanout_calls": per("shard.fanout", "calls"),
        "shard.table_parts_s": per("shard.table_parts"),
        "shard.reply_bytes": per("shard.fanout", "reply_bytes"),
        "shard.coordinator_self_s": per("shard.coordinator"),
        "obs.unattributed_frac": unattributed_frac(spans),
    }


def write_spans(spans, path, workload: str) -> None:
    """One JSON object per line: name, layer, start, end, parent, query_id."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, metric, start, end, parent, query_id, counts in spans:
            record = {"workload": workload, "id": span_id, "name": name,
                      "layer": metric.split(".")[0],
                      "metric": metric, "start": start, "end": end,
                      "parent": parent, "query_id": query_id}
            if counts:
                record["counts"] = counts
            handle.write(json.dumps(record, sort_keys=True) + "\n")
