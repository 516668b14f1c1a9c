"""Tests for WOJ and binary-join subgraph matching against the oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.core import Gamma
from repro.graph import (
    Pattern,
    clique,
    count_isomorphisms,
    cycle,
    diamond,
    from_networkx,
    house,
    path,
    relabel_vertices,
    sm_query,
    tailed_triangle,
    triangle,
    zipf_labels,
)
from repro.algorithms import match_pattern, match_pattern_binary


@pytest.fixture(scope="module")
def medium_graph():
    G = nx.gnm_random_graph(70, 240, seed=13)
    g = from_networkx(G)
    return relabel_vertices(g, zipf_labels(70, 4, seed=5))


ALL_PATTERNS = [
    triangle(), path(2), path(3), cycle(4), diamond(), tailed_triangle(),
    clique(4), house(), sm_query(1), sm_query(2), sm_query(3),
]


class TestWOJ:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: p.name)
    def test_matches_oracle(self, medium_graph, pattern):
        with Gamma(medium_graph) as engine:
            result = match_pattern(engine, pattern)
        assert result.embeddings == count_isomorphisms(medium_graph, pattern)

    def test_unique_subgraphs_divides_automorphisms(self, medium_graph):
        pattern = triangle()
        with Gamma(medium_graph) as engine:
            result = match_pattern(engine, pattern)
        assert result.unique_subgraphs * 6 == result.embeddings

    def test_no_matches(self, medium_graph):
        pattern = Pattern([(0, 1)], labels=[3, 77], name="impossible")
        with Gamma(medium_graph) as engine:
            result = match_pattern(engine, pattern)
        assert result.embeddings == 0

    def test_keep_table_returns_embeddings(self, medium_graph):
        pattern = sm_query(1)
        with Gamma(medium_graph) as engine:
            result, table = match_pattern(engine, pattern, keep_table=True)
            mats = table.materialize()
        assert len(mats) == result.embeddings
        order = pattern.matching_order()
        for row in mats.tolist():
            # row columns follow the matching order; verify all query edges
            assignment = {order[i]: row[i] for i in range(len(order))}
            for u, v in pattern.edges:
                assert medium_graph.has_edge(assignment[u], assignment[v])

    def test_result_metadata(self, medium_graph):
        with Gamma(medium_graph) as engine:
            result = match_pattern(engine, sm_query(2))
        assert result.pattern == "q2-labeled-square"
        assert result.simulated_seconds > 0
        assert result.peak_memory_bytes > 0


class TestBinaryJoin:
    @pytest.mark.parametrize(
        "pattern",
        [triangle(), path(2), cycle(4), sm_query(1), sm_query(2), diamond()],
        ids=lambda p: p.name,
    )
    def test_matches_oracle(self, medium_graph, pattern):
        with Gamma(medium_graph) as engine:
            result = match_pattern_binary(engine, pattern)
        assert result.embeddings == count_isomorphisms(medium_graph, pattern)

    def test_agrees_with_woj(self, medium_graph):
        pattern = sm_query(3)
        with Gamma(medium_graph) as e1:
            woj = match_pattern(e1, pattern)
        with Gamma(medium_graph) as e2:
            binary = match_pattern_binary(e2, pattern)
        assert woj.embeddings == binary.embeddings

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "pattern", [sm_query(1), sm_query(2), cycle(4)],
        ids=lambda p: p.name,
    )
    def test_sharded_row_realignment(self, medium_graph, pattern,
                                     num_shards):
        """Regression: the e-ET seed's host-side row re-alignment must
        honor the plan's edge orientation per *table row*, not per sorted
        position.  A sharded seed interleaves shard-local row blocks, so
        the old double-argsort alignment silently attributed forward
        orientations to the wrong rows and dropped or duplicated
        embeddings on >1 shard."""
        from repro.shard import ShardedGamma

        with Gamma(medium_graph) as single:
            expected = match_pattern_binary(single, pattern).embeddings
        engine = ShardedGamma(medium_graph, num_shards=num_shards)
        try:
            got = match_pattern_binary(engine, pattern).embeddings
        finally:
            engine.close()
        assert got == expected


class TestBinaryJoinResumes:
    """Binary-join SM suspended (a triangle at level 2, a 4-cycle at level
    3) and resumed, at one and two partitions, from the in-memory snapshot
    and from ``checkpoint_dir``:
    its explicit seed is a journaled op (and its only seed), its
    host-side assignments are read back from the filtered levels, and the
    keep masks are not split against a restored table — so the resumed
    answer, simulated seconds and counters are the uninterrupted run's."""

    @staticmethod
    def _graph():
        from repro.graph.generators import erdos_renyi

        return erdos_renyi(60, 400, seed=3)

    #: Pattern -> the level its run is suspended at.
    _SUSPEND = {"triangle": (triangle(), 2), "cycle4": (cycle(4), 3)}

    @staticmethod
    def _books(engine):
        return (float.hex(engine.simulated_seconds),
                [state["counters"] for state in engine.shard_states()])

    def _suspended(self, num_shards, journal, name="triangle"):
        from repro.errors import DeviceOutOfMemory
        from repro.resilience import FaultPlan, FaultSpec

        pattern, level = self._SUSPEND[name]
        with Gamma(self._graph(), num_shards=num_shards) as engine:
            engine.install_fault_plan(FaultPlan(
                name="crash",
                specs=(FaultSpec(kind="device_oom", at=f"*/level:{level}"),)))
            with pytest.raises(DeviceOutOfMemory):
                engine.run(lambda e: match_pattern_binary(e, pattern),
                           checkpoint_dir=journal)
            return engine.snapshot()

    @pytest.mark.parametrize("name", sorted(_SUSPEND))
    @pytest.mark.parametrize("route", ["memory", "disk"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_resumed_run_is_the_uninterrupted_one(self, tmp_path, num_shards,
                                                  route, name):
        pattern = self._SUSPEND[name][0]
        task = lambda e: match_pattern_binary(e, pattern)  # noqa: E731
        with Gamma(self._graph(), num_shards=num_shards) as engine:
            want = (task(engine).embeddings, self._books(engine))
        journal = str(tmp_path) if route == "disk" else None
        handed = self._suspended(num_shards, journal, name)
        kinds = [record["kind"] for record in handed[0]["journal"]]
        # The explicit seed is its only seed: no edge seed is billed and
        # released unread before it.
        assert "seed-explicit" in kinds and "seed-edges" not in kinds
        with Gamma(self._graph(), num_shards=num_shards) as engine:
            result = engine.run(task, checkpoint_dir=journal, resume=True,
                                resume_state=None if journal else handed)
            got = (result.embeddings, self._books(engine))
        assert got == want and want[0] > 0

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_a_failed_resume_still_closes(self, num_shards):
        """Resuming another workload fails on the journal, and the engine
        then closes cleanly."""
        from repro.algorithms import count_kcliques
        from repro.errors import ExecutionError

        handed = self._suspended(num_shards, None)
        engine = Gamma(self._graph(), num_shards=num_shards)
        with pytest.raises(ExecutionError, match="resume mismatch"):
            engine.run(lambda e: count_kcliques(e, 3), resume_state=handed)
        engine.close()


class TestLabeledSemantics:
    def test_unlabeled_pattern_ignores_labels(self, medium_graph):
        unlabeled = relabel_vertices(
            medium_graph, np.zeros(medium_graph.num_vertices, dtype=np.int64)
        )
        with Gamma(medium_graph) as a, Gamma(unlabeled) as b:
            ra = match_pattern(a, triangle())
            rb = match_pattern(b, triangle())
        assert ra.embeddings == rb.embeddings

    def test_labels_prune(self, medium_graph):
        with Gamma(medium_graph) as a, Gamma(medium_graph) as b:
            all_tri = match_pattern(a, triangle()).embeddings
            labeled = match_pattern(b, sm_query(1)).embeddings
        assert labeled < all_tri
