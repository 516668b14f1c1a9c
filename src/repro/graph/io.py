"""Graph I/O: SNAP-style edge-list text files and a compact binary format.

The paper's datasets ship as SNAP edge lists; the binary ``.npz`` format
caches built CSR graphs so benchmark reruns skip normalization.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import InvalidGraphError
from .builders import from_edges
from .csr import CSRGraph

_INT64 = np.iinfo(np.int64)


def load_edge_list(
    path: str | os.PathLike,
    comments: str = "#",
    labels: np.ndarray | None = None,
    name: str | None = None,
) -> CSRGraph:
    """Load a whitespace-separated edge-list text file (SNAP format).

    Lines starting with ``comments`` are skipped; each remaining line must
    hold two integer vertex ids.
    """
    src: list[int] = []
    dst: list[int] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise InvalidGraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidGraphError(
                    f"{path}:{lineno}: non-integer vertex id in {line!r}"
                ) from exc
            if not (_INT64.min <= u <= _INT64.max and _INT64.min <= v <= _INT64.max):
                raise InvalidGraphError(
                    f"{path}:{lineno}: vertex id does not fit in int64 in {line!r}"
                )
            src.append(u)
            dst.append(v)
    return from_edges(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        labels=labels,
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
    )


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the graph as a SNAP-style edge list (one undirected edge per
    line, smaller endpoint first)."""
    with open(path, "w") as handle:
        handle.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                     f"{graph.num_edges} edges\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def save_labels(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write vertex labels as a sidecar file: one ``vertex label`` per line."""
    with open(path, "w") as handle:
        handle.write(f"# labels for {graph.name}\n")
        for v, label in enumerate(graph.labels.tolist()):
            handle.write(f"{v} {label}\n")


def load_labels(
    path: str | os.PathLike, num_vertices: int, comments: str = "#"
) -> np.ndarray:
    """Read a label sidecar (unlisted vertices default to label 0)."""
    labels = np.zeros(num_vertices, dtype=np.int64)
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise InvalidGraphError(
                    f"{path}:{lineno}: expected 'vertex label', got {line!r}"
                )
            try:
                vertex, label = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidGraphError(
                    f"{path}:{lineno}: non-integer field in {line!r}"
                ) from exc
            if not 0 <= vertex < num_vertices:
                raise InvalidGraphError(
                    f"{path}:{lineno}: vertex {vertex} out of range"
                )
            labels[vertex] = label
    return labels


def load_labeled_edge_list(
    edges_path: str | os.PathLike,
    labels_path: str | os.PathLike | None = None,
    name: str | None = None,
) -> CSRGraph:
    """Load a SNAP edge list plus an optional label sidecar.

    This is the hook for running the reproduction on *real* datasets: drop
    the SNAP file for e.g. cit-Patents next to an optional ``.labels``
    file and pass the graph to any engine."""
    graph = load_edge_list(edges_path, name=name)
    if labels_path is None:
        return graph
    labels = load_labels(labels_path, graph.num_vertices)
    from .builders import relabel_vertices

    return relabel_vertices(graph, labels)


def save_binary(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Cache a built graph as ``.npz`` (CSR arrays + labels)."""
    np.savez_compressed(
        path,
        offsets=graph.offsets,
        neighbors=graph.neighbors,
        edge_ids=graph.edge_ids,
        edge_src=graph.edge_src,
        edge_dst=graph.edge_dst,
        labels=graph.labels,
        name=np.array(graph.name),
    )


def load_binary(path: str | os.PathLike) -> CSRGraph:
    """Load a graph cached with :func:`save_binary`."""
    import zipfile  # np.load pulls it in anyway; keeps it off `import repro`

    try:
        with np.load(path, allow_pickle=False) as data:
            return CSRGraph(
                offsets=data["offsets"],
                neighbors=data["neighbors"],
                edge_ids=data["edge_ids"],
                edge_src=data["edge_src"],
                edge_dst=data["edge_dst"],
                labels=data["labels"],
                name=str(data["name"]),
            )
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
        raise InvalidGraphError(f"{path}: not a graph cache: {exc}") from exc
