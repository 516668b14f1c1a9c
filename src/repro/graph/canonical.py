"""Graph canonical labeling and the quick-pattern/canonical two-level scheme.

GAMMA's ``Aggregation`` primitive maps every embedding to its pattern graph
"by computing graph canonical label [24]" (§III-B2).  Canonicalizing each of
millions of embeddings individually is hopeless, so — like the Pangolin and
Kaleido systems GAMMA builds on — we use a two-level scheme:

1. **Quick pattern** (vectorized): each embedding's vertices relabelled by
   first appearance in its edge list, with their labels.  Equal quick
   patterns are *identical* relabelled graphs, hence isomorphic; millions
   of embeddings collapse to at most a few hundred of them.  Rows are
   grouped one edge column at a time (edges ``0..t`` are the group of
   ``0..t-1`` plus one edge), with no row-sized sort; only each distinct
   pattern is packed into two 64-bit words.
2. **Canonical code** (exact, per unique quick pattern): minimize an
   encoding of the adjacency structure over all label/degree-respecting
   vertex permutations, so isomorphic quick patterns map to one code.

Limits: embeddings of at most :data:`MAX_EDGES` edges /
:data:`MAX_VERTICES` vertices, labels below 256 — comfortably covering the
paper's workloads (length <= 4 embeddings).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import InvalidPatternError
from .groupby import Grouped, group_by

#: Packing limits for quick patterns (4-bit vertex ids, 8-bit slots).
MAX_EDGES = 7
MAX_VERTICES = 8
MAX_LABEL = 255
#: Key domain slots per row up to which a column is ranked by a presence
#: map instead of a sort.
_PRESENCE_SLOTS_PER_ROW = 4


def canonical_form(
    edges: Sequence[tuple[int, int]], labels: Sequence[int]
) -> tuple[bytes, tuple[int, ...]]:
    """Exact canonical form of a small labeled graph.

    Minimizes ``(label sequence, sorted edge list)`` over all permutations
    that respect the (label, degree) vertex partition — a sound pruning of
    the full permutation set, since automorphisms preserve both invariants.

    Returns ``(code, placement)`` where ``placement[i]`` is the original
    vertex occupying canonical position ``i`` (needed by MNI support, which
    counts distinct data vertices per canonical position).
    """
    n = len(labels)
    if n > MAX_VERTICES:
        raise InvalidPatternError(f"canonical_form supports <= {MAX_VERTICES} vertices")
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    # Partition vertices into classes by the (label, degree) invariant.
    classes: Dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        classes.setdefault((labels[v], degree[v]), []).append(v)
    class_keys = sorted(classes)

    best: tuple | None = None
    best_flat: tuple[int, ...] = ()
    members = [classes[key] for key in class_keys]
    for perm_parts in itertools.product(
        *(itertools.permutations(part) for part in members)
    ):
        flat = [v for part in perm_parts for v in part]
        # flat[i] is the original vertex placed at canonical position i.
        position = {v: i for i, v in enumerate(flat)}
        relabeled = sorted(
            (min(position[u], position[v]), max(position[u], position[v]))
            for u, v in edges
        )
        candidate = (tuple(labels[v] for v in flat), tuple(relabeled))
        if best is None or candidate < best:
            best = candidate
            best_flat = tuple(flat)
    assert best is not None
    label_part = ",".join(map(str, best[0]))
    edge_part = ";".join(f"{u}-{v}" for u, v in best[1])
    return f"{label_part}|{edge_part}".encode(), best_flat


def canonical_code(
    edges: Sequence[tuple[int, int]], labels: Sequence[int]
) -> bytes:
    """Exact canonical code (see :func:`canonical_form`)."""
    return canonical_form(edges, labels)[0]


def canonical_code_int(
    edges: Sequence[tuple[int, int]], labels: Sequence[int]
) -> int:
    """64-bit canonical key (blake2b of :func:`canonical_code`), suitable
    for the external sort used by the aggregation primitive."""
    digest = hashlib.blake2b(canonical_code(edges, labels), digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


def _rank(keys: np.ndarray, domain: int) -> Grouped:
    """``group_by(keys)`` for keys in ``[0, domain)``: a presence map and
    its running count while the domain is at most
    ``_PRESENCE_SLOTS_PER_ROW`` slots a row, the sort beyond."""
    if domain > _PRESENCE_SLOTS_PER_ROW * len(keys):
        return group_by(keys)
    present = np.zeros(domain, dtype=bool)
    present[keys] = True
    rank = np.cumsum(present) - 1
    return Grouped(np.flatnonzero(present), rank[keys])


class QuickPatternEncoder:
    """Batch mapping of embeddings to canonical pattern keys.

    The encoder memoizes the quick-pattern -> canonical mapping across
    calls, so later FPM iterations reuse earlier canonicalizations.
    """

    def __init__(self) -> None:
        self._canonical_cache: Dict[Tuple[int, int, int], Tuple[int, Tuple[int, ...]]] = {}

    def encode_edge_embeddings(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        vertex_labels: np.ndarray,
        return_positions: bool = False,
        grouped: bool = False,
    ) -> np.ndarray | Grouped | tuple:
        """Canonical 64-bit keys for ``n`` edge-oriented embeddings.

        ``srcs``/``dsts`` are ``(n, k)`` endpoint arrays (embedding i is the
        edge set ``{(srcs[i, t], dsts[i, t])}``); ``vertex_labels`` maps data
        vertex id -> label.

        With ``return_positions=True`` additionally returns an
        ``(n, MAX_VERTICES)`` array whose ``[i, p]`` entry is the data
        vertex that embedding ``i`` maps to canonical pattern position
        ``p`` (or -1 beyond the pattern's size) — the input MNI support
        needs.  With ``grouped=True`` the codes come dictionary-encoded
        (a :class:`~repro.graph.groupby.Grouped`): the quick-pattern
        grouping, folded onto the distinct canonical codes.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.ndim != 2 or srcs.shape != dsts.shape:
            raise ValueError("srcs/dsts must be matching (n, k) arrays")
        n, k = srcs.shape
        if k > MAX_EDGES:
            raise InvalidPatternError(f"at most {MAX_EDGES} edges per embedding")
        if n == 0:
            codes = np.empty(0, dtype=np.int64)
            codes = Grouped(codes, codes.copy()) if grouped else codes
            positions = np.empty((0, MAX_VERTICES), dtype=np.int64)
            return (codes, positions) if return_positions else codes
        if k == 0:
            raise InvalidPatternError("an embedding needs at least one edge")

        quick, first_at, inverse = self._group_quick(srcs, dsts, vertex_labels)
        distinct, rank, placements = self._canonicalize(quick, k)
        codes = Grouped(distinct, rank[inverse]) if grouped else distinct[rank][inverse]
        if not return_positions:
            return codes
        # Each quick pattern's sequence column per canonical position; a
        # -1 (padding) reads first_at's last column, then seq's, both -1.
        column_at = np.take_along_axis(first_at, placements, axis=1)
        seq = np.full((n, 2 * k + 1), -1, dtype=np.int64)
        seq[:, 0:-1:2], seq[:, 1:-1:2] = srcs, dsts
        return codes, np.take_along_axis(seq, column_at[inverse], axis=1)

    @staticmethod
    def _group_quick(
        srcs: np.ndarray, dsts: np.ndarray, vertex_labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group rows by quick pattern, one edge column at a time.

        Returns ``(quick, first_at, inverse)``: each distinct quick
        pattern's ``(qa, qb)`` words and the column of the row sequence
        ``[s0, d0, s1, d1, ...]`` where each of its vertices first appears
        (``MAX_VERTICES + 1`` wide, -1 past its size); each row's pattern.

        An endpoint's slot is the last earlier column holding its vertex,
        or ``2t`` (+1 for the destination) plus its label when it is new.
        Under the row's previous group the slot pair fixes the new edge's
        quick ids and labels, so each column ranks a domain of groups x
        slot pairs.
        """
        n, k = srcs.shape
        ends = [(dsts if j & 1 else srcs)[:, j >> 1] for j in range(2 * k)]
        labels = np.asarray(vertex_labels).astype(np.int64, copy=False)
        # Only labels a row reads must lie in [0, MAX_LABEL]; the table,
        # usually far shorter than the rows, is checked first.
        span = int(labels.max(initial=0)) + 1
        if labels.min(initial=0) < 0 or span > MAX_LABEL + 1:
            read = np.concatenate([labels[end] for end in ends])
            if read.min() < 0 or read.max() > MAX_LABEL:
                raise InvalidPatternError(f"labels must be in [0, {MAX_LABEL}]")
            span = int(read.max()) + 1

        qa = qb = size = np.zeros(1, dtype=np.int64)
        first_at = np.full((1, MAX_VERTICES + 1), -1, dtype=np.int64)
        quick_id = np.zeros((1, 0), dtype=np.int64)
        for t in range(k):
            base = 2 * t
            width_s, width_d = base + span, base + 1 + span
            key = ((labels + base) * width_d)[ends[base]]
            for j in range(base):
                np.copyto(key, j * width_d, where=ends[j] == ends[base])
            slot_d = (labels + (base + 1))[ends[base + 1]]
            for j in range(base + 1):
                np.copyto(slot_d, j, where=ends[j] == ends[base + 1])
            key += slot_d
            if t:
                group *= width_s * width_d
                key += group
            keys, group = _rank(key, len(qa) * width_s * width_d)

            # Decode each new group from its key: quick_id gains the two
            # new columns, a fresh endpoint reading the next id.
            prev, rest = np.divmod(keys, width_s * width_d)
            code_s, code_d = np.divmod(rest, width_d)
            rows = np.arange(len(keys))
            fresh_s, fresh_d = code_s >= base, code_d > base
            quick_id = np.column_stack([quick_id[prev], size[prev], size[prev] + fresh_s])
            id_s = quick_id[rows, np.minimum(code_s, base)]
            quick_id[:, base] = id_s
            id_d = quick_id[rows, np.minimum(code_d, base + 1)]
            quick_id[:, base + 1] = id_d
            size = size[prev] + fresh_s + fresh_d
            if int(size.max()) > MAX_VERTICES:
                raise InvalidPatternError(f"at most {MAX_VERTICES} vertices per embedding")
            qa = qa[prev] | (((id_s << 4) | id_d) << (8 * t))
            qb = (qb[prev]
                  | np.where(fresh_s, (code_s - base) << (8 * id_s), 0)
                  | np.where(fresh_d, (code_d - base - 1) << (8 * id_d), 0))
            first_at = first_at[prev]
            first_at[rows[fresh_s], id_s[fresh_s]] = base
            first_at[rows[fresh_d], id_d[fresh_d]] = base + 1
        return np.stack([qa, qb], axis=1), first_at, group

    def _canonicalize(
        self, quick: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonicalize each distinct quick pattern exactly once.

        Returns ``(distinct, rank, placements)``: the distinct canonical
        codes in ascending order, each quick pattern's index into them
        (isomorphic quick patterns share one), and its canonical placement
        matrix (quick id at canonical position, -1 padded).
        """
        out_codes = np.empty(len(quick), dtype=np.int64)
        placements = np.full((len(quick), MAX_VERTICES), -1, dtype=np.int64)
        for i, (ua, ub) in enumerate(quick):
            cache_key = (int(ua), int(ub), k)
            cached = self._canonical_cache.get(cache_key)
            if cached is None:
                edges, labels = self._decode_quick(int(ua), int(ub), k)
                code_bytes, flat = canonical_form(edges, labels)
                digest = hashlib.blake2b(code_bytes, digest_size=8).digest()
                cached = (int.from_bytes(digest, "little", signed=True), flat)
                self._canonical_cache[cache_key] = cached
            out_codes[i], flat = cached
            placements[i, : len(flat)] = flat
        distinct, rank = np.unique(out_codes, return_inverse=True)
        return distinct, rank, placements

    @staticmethod
    def _decode_quick(qa: int, qb: int, k: int) -> tuple[list, list]:
        """Invert the quick-pattern packing back to (edges, labels)."""
        edges = []
        max_vertex = -1
        for t in range(k):
            code = (qa >> (8 * t)) & 0xFF
            a, b = code >> 4, code & 0xF
            edges.append((a, b))
            max_vertex = max(max_vertex, a, b)
        labels = [(qb >> (8 * v)) & 0xFF for v in range(max_vertex + 1)]
        return edges, labels

    @property
    def cache_size(self) -> int:
        """Distinct quick patterns canonicalized so far."""
        return len(self._canonical_cache)
