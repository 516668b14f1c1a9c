"""Tests for the isomorphism oracle, graph I/O and dataset stand-ins."""

import numpy as np
import networkx as nx
import pytest

from repro.graph import (
    DATASETS,
    clique,
    clique_graph,
    count_cliques,
    count_isomorphisms,
    count_subgraphs,
    cycle,
    find_isomorphisms,
    from_networkx,
    load_binary,
    load_edge_list,
    path,
    save_binary,
    save_edge_list,
    table2_rows,
    triangle,
)
from repro.graph import datasets as ds
from repro.errors import GammaError, InvalidGraphError


class TestOracle:
    def test_triangle_embeddings_count_automorphisms(self, tiny_graph):
        assert count_isomorphisms(tiny_graph, triangle()) == 6
        assert count_subgraphs(tiny_graph, triangle()) == 1

    def test_wheel_triangles(self, wheel_graph):
        assert count_subgraphs(wheel_graph, triangle()) == 5

    def test_embeddings_are_valid(self, wheel_graph):
        pat = triangle()
        for row in find_isomorphisms(wheel_graph, pat):
            for u, v in pat.edges:
                assert wheel_graph.has_edge(int(row[u]), int(row[v]))
            assert len(set(row.tolist())) == pat.num_vertices

    def test_labeled_matching(self, tiny_graph):
        from repro.graph import Pattern
        pat = Pattern([(0, 1)], labels=[0, 2], name="AB-edge")
        # edges with labels (0,2): (0,1) and (3,4) — each in one orientation.
        assert count_isomorphisms(tiny_graph, pat) == 2

    def test_against_networkx(self):
        G = nx.gnm_random_graph(30, 90, seed=11)
        g = from_networkx(G)
        nx_triangles = sum(nx.triangles(G).values()) // 3
        assert count_subgraphs(g, triangle()) == nx_triangles

    def test_path_counts(self):
        g = clique_graph(4)
        # paths of length 2 in K4: 4 * C(3,2) * 2 = 24 embeddings
        assert count_isomorphisms(g, path(2)) == 24

    def test_count_cliques_matches_pattern_count(self):
        G = nx.gnm_random_graph(25, 90, seed=5)
        g = from_networkx(G)
        assert count_cliques(g, 3) == count_subgraphs(g, triangle())
        assert count_cliques(g, 4) == count_subgraphs(g, clique(4))

    def test_cliques_k1_k2(self, tiny_graph):
        assert count_cliques(tiny_graph, 1) == tiny_graph.num_vertices
        assert count_cliques(tiny_graph, 2) == tiny_graph.num_edges

    def test_cycle_has_no_triangles(self):
        g = from_networkx(nx.cycle_graph(8))
        assert count_isomorphisms(g, triangle()) == 0

    def test_invalid_k_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            count_cliques(tiny_graph, 0)


class TestIO:
    def test_edge_list_roundtrip(self, tiny_graph, tmp_path):
        target = tmp_path / "g.txt"
        save_edge_list(tiny_graph, target)
        loaded = load_edge_list(target)
        assert loaded.num_vertices == tiny_graph.num_vertices
        assert list(loaded.edges()) == list(tiny_graph.edges())

    def test_edge_list_skips_comments(self, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text("# a comment\n0 1\n\n1 2\n")
        g = load_edge_list(target)
        assert g.num_edges == 2

    def test_edge_list_rejects_garbage(self, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text("0 x\n")
        with pytest.raises(InvalidGraphError):
            load_edge_list(target)

    def test_edge_list_rejects_short_lines(self, tmp_path):
        target = tmp_path / "g.txt"
        target.write_text("42\n")
        with pytest.raises(InvalidGraphError):
            load_edge_list(target)

    def test_binary_roundtrip(self, random_labeled_graph, tmp_path):
        target = tmp_path / "g.npz"
        save_binary(random_labeled_graph, target)
        loaded = load_binary(target)
        assert loaded.num_edges == random_labeled_graph.num_edges
        assert (loaded.labels == random_labeled_graph.labels).all()
        assert (loaded.offsets == random_labeled_graph.offsets).all()
        assert loaded.name == random_labeled_graph.name

    @pytest.mark.parametrize(
        "line", ["3000000000 2", "2 2147483647", "8589934593 2"],
        ids=["3e9", "2pow31-1", "2pow33+1"])
    def test_edge_list_rejects_ids_past_the_pack_limit(self, tmp_path, line):
        """An id the packed (u << 32 | v) keys cannot hold is refused
        before anything is sized by it (2**31 - 1 would need a 16 GiB
        offsets array; 2**33 + 1 would wrap to vertex 1)."""
        target = tmp_path / "g.txt"
        target.write_text(f"0 1\n{line}\n")
        with pytest.raises(InvalidGraphError, match="packed edge-key limit"):
            load_edge_list(target)

    @pytest.mark.parametrize(
        "line", ["99999999999999999999 2", "2 -99999999999999999999"],
        ids=["positive", "negative"])
    def test_edge_list_reports_int64_overflow_with_location(self, tmp_path,
                                                            line):
        target = tmp_path / "g.txt"
        target.write_text(f"0 1\n{line}\n")
        with pytest.raises(InvalidGraphError, match=r"g\.txt:2: .*int64"):
            load_edge_list(target)

    def test_binary_rejects_damaged_files(self, tiny_graph, tmp_path):
        good = tmp_path / "g.npz"
        save_binary(tiny_graph, good)
        blob = good.read_bytes()
        damaged = {
            "truncated": blob[: len(blob) // 2],
            "garbage": b"not a zip archive",
            "empty": b"",
        }
        for name, data in damaged.items():
            target = tmp_path / f"{name}.npz"
            target.write_bytes(data)
            with pytest.raises(InvalidGraphError, match="not a graph cache"):
                load_binary(target)
        partial = tmp_path / "partial.npz"
        np.savez(partial, offsets=tiny_graph.offsets)
        with pytest.raises(InvalidGraphError, match="neighbors"):
            load_binary(partial)


class TestDatasets:
    def test_registry_matches_table2(self):
        assert set(DATASETS) == {
            "CP", "CL", "CO", "EA", "ER", "CL*8", "SL*5", "UK", "IT", "TW",
        }

    def test_paper_sizes_recorded(self):
        spec = DATASETS["TW"]
        assert spec.paper_edges == 2_400_000_000
        assert spec.kind == "social"

    def test_load_builds_and_caches(self):
        a = ds.load("ER")
        b = ds.load("ER")
        assert a is b
        ds.clear_cache()
        c = ds.load("ER")
        assert c is not a
        assert c.num_edges == a.num_edges  # deterministic rebuild
        ds.clear_cache()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(GammaError):
            ds.load("nope")

    def test_standins_are_labeled(self):
        g = ds.load("EA")
        assert g.num_labels > 1
        ds.clear_cache()

    def test_upscaled_standin_larger_than_base(self):
        base = ds.load("CL")
        big = ds.load("CL*8")
        assert big.num_vertices == 8 * base.num_vertices
        assert big.num_edges > 4 * base.num_edges
        ds.clear_cache()

    def test_table2_rows_shape(self):
        rows = table2_rows()
        assert len(rows) == 10
        for row in rows:
            assert row["standin_edges"] > 0
            assert row["paper_edges"] >= 1000 * row["standin_edges"] // 10
        ds.clear_cache()


class TestLabeledIO:
    def test_label_sidecar_roundtrip(self, tiny_graph, tmp_path):
        from repro.graph import (
            load_labeled_edge_list,
            save_edge_list,
            save_labels,
        )

        edges = tmp_path / "g.txt"
        labels = tmp_path / "g.labels"
        save_edge_list(tiny_graph, edges)
        save_labels(tiny_graph, labels)
        loaded = load_labeled_edge_list(edges, labels)
        assert (loaded.labels == tiny_graph.labels).all()
        assert loaded.num_edges == tiny_graph.num_edges

    def test_missing_sidecar_defaults_unlabeled(self, tiny_graph, tmp_path):
        from repro.graph import load_labeled_edge_list, save_edge_list

        edges = tmp_path / "g.txt"
        save_edge_list(tiny_graph, edges)
        loaded = load_labeled_edge_list(edges)
        assert loaded.num_labels == 1

    def test_partial_labels_default_zero(self, tmp_path):
        from repro.graph import load_labels

        sidecar = tmp_path / "x.labels"
        sidecar.write_text("# comment\n2 7\n")
        labels = load_labels(sidecar, 4)
        assert labels.tolist() == [0, 0, 7, 0]

    def test_bad_sidecar_rejected(self, tmp_path):
        from repro.graph import load_labels
        from repro.errors import InvalidGraphError

        sidecar = tmp_path / "x.labels"
        sidecar.write_text("9 1\n")
        with pytest.raises(InvalidGraphError):
            load_labels(sidecar, 4)  # vertex out of range
        sidecar.write_text("a b\n")
        with pytest.raises(InvalidGraphError):
            load_labels(sidecar, 4)
        sidecar.write_text("42\n")
        with pytest.raises(InvalidGraphError):
            load_labels(sidecar, 4)

    def test_real_dataset_end_to_end(self, tmp_path):
        """The real-data hook: a SNAP-style file runs through GAMMA."""
        from repro.core import Gamma
        from repro.algorithms import triangle_count
        from repro.graph import load_labeled_edge_list

        snap = tmp_path / "real.txt"
        snap.write_text("# synthetic 'real' file\n0 1\n1 2\n2 0\n2 3\n")
        graph = load_labeled_edge_list(snap)
        with Gamma(graph) as engine:
            assert triangle_count(engine).triangles == 1
