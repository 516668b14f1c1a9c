"""Tests for the Gamma façade and its configuration."""

import numpy as np
import pytest

from repro.core import (
    Gamma,
    GammaConfig,
    HYBRID,
    MinSupport,
    PatternTable,
    UNIFIED_ONLY,
)
from repro.errors import ExecutionError
from repro.gpusim import make_platform


class TestGammaConfig:
    def test_defaults_are_paper_gamma(self):
        cfg = GammaConfig()
        assert cfg.access_mode == HYBRID
        assert cfg.pre_merge is True
        assert cfg.write_strategy == "dynamic"
        assert cfg.compaction is True
        assert cfg.block_bytes == 8 * 1024
        assert cfg.sort_method == "multi_merge"

    def test_invalid_access_mode(self):
        with pytest.raises(ExecutionError):
            GammaConfig(access_mode="warp-speed")

    def test_invalid_strategy(self):
        with pytest.raises(ExecutionError):
            GammaConfig(write_strategy="hope")

    def test_invalid_sort(self):
        with pytest.raises(ExecutionError):
            GammaConfig(sort_method="bogo")

    def test_invalid_fractions(self):
        with pytest.raises(ExecutionError):
            GammaConfig(pool_fraction=0.0)
        with pytest.raises(ExecutionError):
            GammaConfig(buffer_fraction=1.5)

    def test_variant(self):
        cfg = GammaConfig().variant(pre_merge=False, num_warps=4)
        assert cfg.pre_merge is False
        assert cfg.num_warps == 4
        assert cfg.access_mode == HYBRID  # untouched knob


class TestGammaLifecycle:
    def test_context_manager_releases(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            platform = gamma.platform
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            assert platform.device.used > 0
        assert platform.device.used == 0
        assert platform.host_used == 0

    def test_close_idempotent(self, tiny_graph):
        gamma = Gamma(tiny_graph)
        gamma.close()
        gamma.close()

    def test_close_frees_arrays_without_gc(self, wheel_graph):
        """A closed engine is not cyclic garbage: with the collector off,
        refcounting alone frees a finished query's columns, while a table
        handed out with ``keep_table=True`` stays readable."""
        import gc
        import weakref

        from repro.algorithms import count_kcliques

        gc.collect()
        gc.disable()
        try:
            gamma = Gamma(wheel_graph)
            gamma.enable_checkpointing()
            result, table = count_kcliques(gamma, 3, keep_table=True)
            last_column = weakref.ref(table.columns[-1].values)
            gamma.close()
            assert len(table.materialize()) == result.cliques
            del gamma, table
            assert last_column() is None
        finally:
            gc.enable()

    def test_custom_platform(self, tiny_graph):
        platform = make_platform(num_warps=8)
        with Gamma(tiny_graph, platform=platform) as gamma:
            assert gamma.platform is platform

    def test_vertex_only_workload_skips_edge_regions(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            gamma.vertex_extension(table, [0])
            assert "edge_slots" not in gamma.planners
            # edge use materializes the lazy mapping
            etable = gamma.new_edge_table()
            gamma.seed_edges(etable)
            assert "edge_slots" in gamma.planners

    def test_num_warps_flows_to_kernel(self, tiny_graph):
        with Gamma(tiny_graph, GammaConfig(num_warps=3)) as gamma:
            assert gamma.platform.kernel.num_warps == 3


class TestPrimitivesFacade:
    def test_output_results_table(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            out = gamma.output_results(table=table)
            assert out.shape == (5, 1)

    def test_output_results_both(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            table = gamma.new_edge_table()
            gamma.seed_edges(table)
            pt = PatternTable()
            gamma.aggregation(table, pt)
            emb, patterns = gamma.output_results(table=table, pattern_table=pt)
            assert len(emb) == tiny_graph.num_edges
            assert patterns

    def test_output_results_nothing_rejected(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            with pytest.raises(ExecutionError):
                gamma.output_results()

    def test_filtering_needs_full_support_args(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            table = gamma.new_edge_table()
            gamma.seed_edges(table)
            with pytest.raises(ExecutionError):
                gamma.filtering(table, constraint=MinSupport(1))

    def test_filtering_with_mask(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            removed = gamma.filtering(table, keep_mask=np.array([1, 1, 0, 0, 0], bool))
            assert removed == 3
            assert table.num_embeddings == 2

    def test_peak_memory_accounting(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            gamma.vertex_extension(table, [0])
            assert gamma.peak_device_bytes > 0
            assert gamma.peak_host_bytes > 0
            assert gamma.peak_memory_bytes == (
                gamma.peak_device_bytes + gamma.peak_host_bytes
            )

    def test_simulated_time_monotone(self, tiny_graph):
        with Gamma(tiny_graph) as gamma:
            t0 = gamma.simulated_seconds
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            gamma.vertex_extension(table, [0])
            assert gamma.simulated_seconds > t0


class TestConfigBehaviour:
    def test_access_mode_changes_traffic(self, random_labeled_graph):
        """Unified-only and hybrid route traffic differently."""
        from repro.gpusim import stats as st

        zc = {}
        for mode in (HYBRID, UNIFIED_ONLY, "zerocopy"):
            with Gamma(random_labeled_graph, GammaConfig(access_mode=mode)) as g:
                table = g.new_vertex_table()
                g.seed_vertices(table)
                g.vertex_extension(table, [0])
                zc[mode] = g.platform.counters.get(st.ZC_TRANSACTIONS)
        assert zc[UNIFIED_ONLY] == 0
        assert zc["zerocopy"] > 0
        # the planner promotes hot pages, so hybrid uses at most as much
        # zero-copy traffic as the zero-copy-only baseline
        assert zc[HYBRID] <= zc["zerocopy"]

    def test_no_compaction_config(self, tiny_graph):
        with Gamma(tiny_graph, GammaConfig(compaction=False)) as gamma:
            table = gamma.new_vertex_table()
            gamma.seed_vertices(table)
            used = gamma.platform.host_used
            gamma.filtering(table, keep_mask=np.zeros(5, dtype=bool))
            assert gamma.platform.host_used == used

    def test_results_independent_of_knobs(self, random_labeled_graph):
        """Every configuration produces identical embeddings."""
        outs = []
        for cfg in (
            GammaConfig(),
            GammaConfig(pre_merge=False),
            GammaConfig(write_strategy="two_pass"),
            GammaConfig(access_mode="zerocopy"),
            GammaConfig(sort_method="naive_merge"),
        ):
            with Gamma(random_labeled_graph, cfg) as gamma:
                table = gamma.new_vertex_table()
                gamma.seed_vertices(table)
                gamma.vertex_extension(table, [0])
                gamma.vertex_extension(table, [0, 1])
                outs.append(sorted(map(tuple, table.materialize().tolist())))
        assert all(o == outs[0] for o in outs)
