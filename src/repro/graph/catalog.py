"""Human-readable pattern catalog.

Aggregation reports patterns as opaque 64-bit canonical codes.  The catalog
maps codes back to names like ``triangle[0,1,2]`` — so FPM/motif results
read like results instead of hashes.  A registered pattern keeps its own
name; any other code is named on demand from the process-wide canonical
table (:func:`~repro.graph.canonical.representative`): the connected shape
of up to 5 vertices / 4 edges it is isomorphic to, and the lexicographically
least assignment of the catalog's labels to that shape's vertices that
gives the code.  A code outside those bounds reads as hex.

The enumeration of unlabeled connected graphs is exact (canonical-code
deduplication over all edge subsets).
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Sequence

from .canonical import canonical_code_int, canonical_entry, representative
from .patterns import Pattern

#: Names for the classic small shapes, keyed by (num_vertices, sorted degree
#: sequence, num_edges).
_SHAPE_NAMES = {
    (2, (1, 1), 1): "edge",
    (3, (1, 1, 2), 2): "wedge",
    (3, (2, 2, 2), 3): "triangle",
    (4, (1, 1, 1, 3), 3): "star-3",
    (4, (1, 1, 2, 2), 3): "path-3",
    (4, (1, 2, 2, 3), 4): "tailed-triangle",
    (4, (2, 2, 2, 2), 4): "square",
    (4, (2, 2, 3, 3), 5): "diamond",
    (4, (3, 3, 3, 3), 6): "4-clique",
    (5, (1, 1, 1, 1, 4), 4): "star-4",
    (5, (1, 1, 1, 2, 3), 4): "fork",
    (5, (1, 1, 2, 2, 2), 4): "path-4",
    (5, (2, 2, 2, 2, 2), 5): "5-cycle",
    (5, (4, 4, 4, 4, 4), 10): "5-clique",
}


def shape_name(edges: Sequence[tuple[int, int]]) -> str:
    """A readable name for an unlabeled shape (falls back to ``gVkE``)."""
    n = _order(edges)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    key = (n, tuple(sorted(degree)), len(edges))
    return _SHAPE_NAMES.get(key, f"g{n}v{len(edges)}e")


def connected_shapes(max_vertices: int = 5, max_edges: int = 6) -> list[tuple]:
    """All connected unlabeled graphs up to the bounds, one representative
    edge list per isomorphism class."""
    return list(_shapes(max_vertices, max_edges).values())


@functools.lru_cache(maxsize=None)
def _shapes(max_vertices: int, max_edges: int) -> Dict[int, tuple]:
    """Unlabeled canonical code -> :func:`connected_shapes` representative."""
    shapes: Dict[int, tuple] = {}
    all_pairs = list(itertools.combinations(range(max_vertices), 2))
    for k in range(1, max_edges + 1):
        for combo in itertools.combinations(all_pairs, k):
            vertices = sorted({v for e in combo for v in e})
            index = {v: i for i, v in enumerate(vertices)}
            edges = tuple(
                (index[u], index[v]) for u, v in combo
            )
            n = len(vertices)
            if not _connected(edges, n):
                continue
            code = canonical_code_int(edges, [0] * n)
            shapes.setdefault(code, edges)
    return shapes


def _connected(edges: Sequence[tuple[int, int]], n: int) -> bool:
    reached = {0}
    for __ in range(n):  # a path has fewer than n edges
        reached |= {v for edge in edges if reached & set(edge) for v in edge}
    return len(reached) == n


class PatternCatalog:
    """Maps canonical codes back to readable descriptions and
    :class:`~repro.graph.patterns.Pattern` objects: registered patterns,
    then shapes labelled below ``num_labels`` named on demand."""

    def __init__(self, num_labels: int = 0) -> None:
        self.num_labels = num_labels
        self._registered: Dict[int, tuple] = {}  # code -> (edges, labels, name)
        self._crossed = False

    def register(self, pattern: Pattern, name: str | None = None) -> int:
        """Register one pattern; returns its canonical code."""
        code = canonical_code_int(list(pattern.edges), list(pattern.labels))
        self._registered[code] = (pattern.edges, pattern.labels, name or pattern.name)
        return code

    def _named(self, code: int) -> tuple | None:
        """``(edges, labels, name)`` of a code, or None outside the catalog."""
        if int(code) in self._registered:
            return self._registered[int(code)]
        shapes = _shapes(5, 4)
        found = representative(code)
        if found is None and not self._crossed:
            # Mined in another process (a process-executor worker), whose
            # table entries stayed there: cross shapes and labels here, once.
            self._crossed = True
            for shape in shapes.values():
                for labels in itertools.product(range(self.num_labels),
                                                repeat=_order(shape)):
                    canonical_entry(shape, labels)
            found = representative(code)
        if found is None or max(found[1], default=0) >= self.num_labels:
            return None
        edges, labels = found
        shape = shapes.get(canonical_code_int(edges, [0] * len(labels)))
        if shape is None:
            return None
        target = {frozenset(edge) for edge in edges}
        least = min(tuple(labels[p[v]] for v in range(len(labels)))
                    for p in itertools.permutations(range(len(labels)))
                    if {frozenset((p[u], p[v])) for u, v in shape} == target)
        suffix = f"[{','.join(map(str, least))}]" if any(least) else ""
        return shape, least, shape_name(shape) + suffix

    def pattern_of(self, code: int) -> Pattern:
        """Reconstruct a pattern from its canonical code —
        e.g. to re-match (and so materialize the instances of) a pattern
        that FPM just discovered.

        The rebuilt pattern keeps its labels: aggregation canonicalizes
        embeddings with their *actual* vertex labels, so an all-zero label
        vector means the instances genuinely carry label 0.
        """
        named = self._named(code)
        if named is None:
            raise KeyError(f"code {code} is not in the catalog")
        edges, labels, name = named
        return Pattern(list(edges), labels=list(labels), name=name)

    def name_of(self, code: int) -> str:
        """Readable name for a canonical code (hex fallback if unknown)."""
        named = self._named(code)
        if named is None:
            return f"pattern:{int(code) & 0xFFFFFFFFFFFFFFFF:016x}"
        return named[2]

    def describe(self, patterns: Dict[int, int]) -> list[tuple[str, int]]:
        """Turn an FPM/motif result (code -> support) into named rows,
        sorted by descending support."""
        rows = [
            (self.name_of(code), support) for code, support in patterns.items()
        ]
        rows.sort(key=lambda item: (-item[1], item[0]))
        return rows

    def __len__(self) -> int:
        """Registered patterns (on-demand names are not counted)."""
        return len(self._registered)

    def __contains__(self, code: int) -> bool:
        return self._named(code) is not None


def _order(edges: Sequence[tuple[int, int]]) -> int:
    return max(max(e) for e in edges) + 1


def default_catalog(num_labels: int = 1) -> PatternCatalog:
    """A catalog naming the connected shapes of up to 5 vertices / 4 edges
    under labels below ``num_labels`` — every pattern the example
    workloads mine."""
    return PatternCatalog(max(1, num_labels))
