"""Hub-row-vs-binary-search equivalence for `CSRGraph` adjacency probes.

`CSRGraph.has_edges` answers a probe from the packed bitmap row of `u` if
`u` is a hub, else from `v`'s (the graph is undirected), else by binary
search over the packed edge keys.  The hubs are the highest-degree
vertices whose rows fit in `_HUB_BYTES_PER_KEY_BYTE` times the keys' bytes;
with that budget at 0 every probe binary-searches.  Both must agree with a
Python set of the edges on every probe: hub x hub, hub x non-hub in both
orientations, non-hub x non-hub, `u == v`, isolated vertices, graphs with
no edges, and graphs past the 65 536 vertices where a `V x V` bitset stops
fitting in 512 MiB.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.graph import csr, from_edges
from tests.twins import straight_line


def _skewed_graph(num_vertices, num_edges, seed):
    """Endpoints drawn with a power-law bias toward low ids: a few hubs,
    a long tail of degree-1/2 vertices and, on wide graphs, isolated ones."""
    rng = np.random.default_rng(seed)
    src = (num_vertices * rng.random(num_edges) ** 3).astype(np.int64)
    dst = rng.integers(0, num_vertices, num_edges)
    keep = src != dst
    return from_edges(src[keep], dst[keep], num_vertices=num_vertices)


def _probe_pairs(graph, seed, width=24):
    """Every ordered pair over a vertex sample holding the top-degree
    vertices, random edge endpoints and random (often isolated) vertices,
    then random edges in both orientations."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    edges = rng.integers(0, graph.num_edges, 4 * width) if graph.num_edges else []
    sample = np.unique(np.concatenate([
        np.argsort(-graph.degrees, kind="stable")[: width // 3],
        rng.integers(0, n, width // 3),
        graph.edge_dst[edges[: width // 3]],
    ]))
    u, v = np.meshgrid(sample, sample, indexing="ij")
    src, dst = graph.edge_src[edges], graph.edge_dst[edges]
    return (np.concatenate([u.ravel(), src, dst]),
            np.concatenate([v.ravel(), dst, src]))


def _fresh(graph):
    # The hub rows are cached per instance; a copy builds its own under
    # whatever budget is patched in.
    return csr.CSRGraph(graph.offsets, graph.neighbors, graph.edge_ids,
                        graph.edge_src, graph.edge_dst, graph.labels)


def _edge_set(graph):
    edges = set(graph.edges())
    return edges | {(v, u) for u, v in edges}


def _check(graph, u, v):
    """Default budget, budget 0 and the edge set agree on every probe;
    returns the default-budget graph's hub flags."""
    fast = _fresh(graph)
    got = fast.has_edges(u, v)
    row_base, bits = fast._hub_rows()
    assert bits.nbytes <= 2 * fast.adjacency_keys.nbytes
    with mock.patch.object(csr, "_HUB_BYTES_PER_KEY_BYTE", 0), \
            mock.patch.object(csr, "_row_bits", side_effect=AssertionError):
        ref = _fresh(graph).has_edges(u, v)
    np.testing.assert_array_equal(got, ref)
    edges = _edge_set(graph)
    assert got.tolist() == [(a, b) in edges for a, b in zip(u.tolist(), v.tolist())]
    return row_base >= 0


@hst.composite
def skewed_cases(draw):
    num_vertices = draw(hst.integers(min_value=0, max_value=2500))
    num_edges = draw(hst.integers(min_value=0, max_value=300)) if num_vertices else 0
    seed = draw(hst.integers(min_value=0, max_value=2**31))
    return num_vertices, num_edges, seed


class TestHasEdgesEquivalence:
    @given(skewed_cases())
    @settings(max_examples=60, deadline=None)
    def test_hub_rows_match_binary_search_and_the_edge_set(self, case):
        num_vertices, num_edges, seed = case
        graph = _skewed_graph(num_vertices, num_edges, seed)
        _check(graph, *_probe_pairs(graph, seed))

    def test_probes_reach_every_path(self):
        """One case of the strategy above, shown to probe hub x hub, both
        hub x non-hub orientations, the non-hub tail, ``u == v`` and
        isolated vertices."""
        graph = _skewed_graph(2000, 300, seed=7)
        u, v = _probe_pairs(graph, seed=7)
        hub = _check(graph, u, v)
        assert 0 < hub.sum() < np.count_nonzero(graph.degrees)
        isolated = graph.degrees == 0
        for cover in (hub[u] & hub[v], hub[u] & ~hub[v], ~hub[u] & hub[v],
                      ~hub[u] & ~hub[v] & ~isolated[u] & ~isolated[v],
                      u == v, isolated[u]):
            assert cover.any()
        tail = ~hub[u] & ~hub[v]
        assert graph.has_edges(u, v)[tail].any()
        # Only the probes with a hub on neither end reach the binary search.
        searched = []
        search = csr.CSRGraph._search

        def spy(self, a, b):
            searched.extend(zip(a.tolist(), b.tolist()))
            return search(self, a, b)

        with mock.patch.object(csr.CSRGraph, "_search", spy):
            graph.has_edges(u, v)
        assert sorted(searched) == sorted(zip(u[tail].tolist(), v[tail].tolist()))

    def test_graphs_without_edges(self):
        for n in (0, 1, 5):
            graph = from_edges(np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int64), num_vertices=n)
            u, v = _probe_pairs(graph, seed=0)
            assert _check(graph, u, v).sum() == 0
            assert not graph.has_edges(u, v).any()
            assert graph._hub_rows()[1].nbytes == 0

    def test_past_the_bitset_cliff(self):
        """70 000 vertices (a V x V bitset would pass 512 MiB) still get
        hub rows, within the budget, that answer as the binary search."""
        graph = _skewed_graph(70_000, 120_000, seed=3)
        rng = np.random.default_rng(3)
        ends = rng.integers(0, graph.num_edges, 4000)
        u = np.concatenate([graph.edge_src[ends], graph.edge_dst[ends],
                            rng.integers(0, 70_000, 4000)])
        v = np.concatenate([graph.edge_dst[ends], graph.edge_src[ends],
                            rng.integers(0, 70_000, 4000)])
        hub = _check(graph, u, v)
        assert (hub[u] | hub[v]).any() and (~hub[u] & ~hub[v]).any()

    def test_reference_pipeline_builds_no_hub_rows(self):
        """On the straight-line stack a fresh graph binary-searches; the
        shipped stack builds hub rows on first probe."""
        graph = from_edges(
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            num_vertices=4,
        )
        with straight_line():
            assert bool(graph.has_edge(0, 1))
            assert graph._hub_rows()[1].nbytes == 0
        graph = _fresh(graph)
        assert bool(graph.has_edge(1, 0))
        assert graph._hub_rows()[1].nbytes > 0

    def test_hub_budget_is_inclusive(self):
        """One edge's keys are 16 bytes: at 1 byte per key byte that is one
        128-bit row, for the lower-id endpoint of the tied degrees."""
        for n, rows in ((128, 1), (129, 0)):
            graph = from_edges(np.array([9], dtype=np.int64),
                               np.array([5], dtype=np.int64), num_vertices=n)
            with mock.patch.object(csr, "_HUB_BYTES_PER_KEY_BYTE", 1):
                row_base, bits = graph._hub_rows()
            assert bits.nbytes == rows * 16
            assert np.flatnonzero(row_base >= 0).tolist() == [5][:rows]
            assert graph.has_edge(9, 5) and graph.has_edge(5, 9)
