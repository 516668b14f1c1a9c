"""Graph statistics.

A compact profile of a graph — the numbers a GPM practitioner checks
before picking workload parameters: degree distribution shape (mining cost
is driven by Σ deg²), clustering (triangle density drives kCL), component
structure, and label skew.  Used by the CLI's dataset listing and by tests
that assert the stand-ins resemble their domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import largest_component_fraction, num_components
from .csr import CSRGraph


@dataclass(frozen=True)
class GraphProfile:
    """Summary statistics of one graph."""

    name: str
    num_vertices: int
    num_edges: int
    max_degree: int
    mean_degree: float
    #: Σ deg² — proportional to the wedge count, the first-order cost of
    #: every 2-anchor extension.
    degree_second_moment: int
    #: Global clustering coefficient: 3 * triangles / wedges.
    clustering: float
    num_components: int
    giant_component_fraction: float
    num_labels: int
    #: Frequency of the most common label.
    top_label_share: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "max_deg": self.max_degree,
            "mean_deg": f"{self.mean_degree:.2f}",
            "sum_deg2": self.degree_second_moment,
            "clustering": f"{self.clustering:.4f}",
            "components": self.num_components,
            "giant_frac": f"{self.giant_component_fraction:.2f}",
            "labels": self.num_labels,
            "top_label": f"{self.top_label_share:.2f}",
        }


#: Candidate slots ``triangle_count_exact`` expands at a time (one edge's
#: may pass it alone), so its temporaries are a few MB on any graph.
_TRIANGLE_BATCH_SLOTS = 1 << 18


def triangle_count_exact(graph: CSRGraph) -> int:
    """Exact triangle count via ordered neighbor intersection (vectorized
    per-edge adjacency checks — independent of the mining engines, so it
    can serve as their oracle on large graphs)."""
    # For each edge (u, v): count w in N(u) with w > v and (v, w) an edge.
    # N(u) is sorted, so those w are the slots after v's in u's list.
    u, v = graph.edge_src, graph.edge_dst
    first = np.searchsorted(graph.adjacency_keys, graph._pack_pairs(u, v), side="right")
    widths = graph.offsets[u + 1] - first
    ends = np.cumsum(widths)
    total, lo = 0, 0
    while lo < len(u):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(
            ends, done + _TRIANGLE_BATCH_SLOTS, side="right")))
        width = widths[lo:hi]
        # Edge i owns batch slots ends[i] - width[i] .. ends[i] - 1, which
        # read its list from first[i] on.
        slots = np.arange(done, int(ends[hi - 1])) + np.repeat(
            first[lo:hi] - ends[lo:hi] + width, width)
        total += int(graph.has_edges(
            np.repeat(v[lo:hi], width), graph.neighbors[slots]).sum())
        lo = hi
    return total


def wedge_count(graph: CSRGraph) -> int:
    """Number of 2-paths: Σ C(deg, 2)."""
    deg = graph.degrees.astype(np.int64)
    return int((deg * (deg - 1) // 2).sum())


def clustering_coefficient(graph: CSRGraph) -> float:
    """Global clustering coefficient 3T / W (0 when wedge-free)."""
    wedges = wedge_count(graph)
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count_exact(graph) / wedges


def profile(graph: CSRGraph) -> GraphProfile:
    """Compute the full statistics profile."""
    degrees = graph.degrees
    labels = graph.labels
    if len(labels):
        counts = np.bincount(labels)
        top_share = float(counts.max()) / len(labels)
    else:
        top_share = 0.0
    return GraphProfile(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        mean_degree=float(degrees.mean()) if len(degrees) else 0.0,
        degree_second_moment=int((degrees.astype(np.int64) ** 2).sum()),
        clustering=clustering_coefficient(graph),
        num_components=num_components(graph),
        giant_component_fraction=largest_component_fraction(graph),
        num_labels=graph.num_labels,
        top_label_share=top_share,
    )
