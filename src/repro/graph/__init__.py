"""Graph substrate: CSR storage, builders, generators, datasets, patterns,
canonical labeling and a reference isomorphism oracle.

This package is framework-independent — GAMMA, every baseline, the tests
and the benchmark harness all consume the same :class:`~repro.graph.csr.CSRGraph`.
"""

from .builders import from_edge_list, from_edges, from_networkx, relabel_vertices
from .canonical import (
    QuickPatternEncoder,
    canonical_code,
    canonical_code_int,
    canonical_form,
)
from .catalog import PatternCatalog, connected_shapes, default_catalog, shape_name
from .components import (
    component_sizes,
    connected_components,
    largest_component_fraction,
    num_components,
)
from .metrics import (
    GraphProfile,
    clustering_coefficient,
    profile,
    triangle_count_exact,
    wedge_count,
)
from .csr import CSRGraph
from .datasets import DATASETS, DatasetSpec, load, table2_rows
from .generators import clique as clique_graph
from .generators import cycle as cycle_graph
from .generators import erdos_renyi, kronecker, star, zipf_labels
from .io import (
    load_binary,
    load_edge_list,
    load_labeled_edge_list,
    load_labels,
    save_binary,
    save_edge_list,
    save_labels,
)
from .isomorphism import (
    count_cliques,
    count_isomorphisms,
    count_subgraphs,
    find_isomorphisms,
)
from .patterns import (
    SM_QUERIES,
    Pattern,
    clique,
    cycle,
    diamond,
    house,
    path,
    sm_query,
    tailed_triangle,
    triangle,
)
from .reorder import bfs_order, degree_order, reorder
from .upscale import upscale

__all__ = [
    "from_edge_list",
    "from_edges",
    "from_networkx",
    "relabel_vertices",
    "QuickPatternEncoder",
    "canonical_code",
    "canonical_code_int",
    "canonical_form",
    "PatternCatalog",
    "connected_shapes",
    "default_catalog",
    "shape_name",
    "component_sizes",
    "connected_components",
    "largest_component_fraction",
    "num_components",
    "GraphProfile",
    "clustering_coefficient",
    "profile",
    "triangle_count_exact",
    "wedge_count",
    "bfs_order",
    "degree_order",
    "reorder",
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "load",
    "table2_rows",
    "clique_graph",
    "cycle_graph",
    "erdos_renyi",
    "kronecker",
    "star",
    "zipf_labels",
    "load_binary",
    "load_edge_list",
    "load_labeled_edge_list",
    "load_labels",
    "save_labels",
    "save_binary",
    "save_edge_list",
    "count_cliques",
    "count_isomorphisms",
    "count_subgraphs",
    "find_isomorphisms",
    "SM_QUERIES",
    "Pattern",
    "clique",
    "cycle",
    "diamond",
    "house",
    "path",
    "sm_query",
    "tailed_triangle",
    "triangle",
    "upscale",
]
