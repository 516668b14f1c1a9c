"""Graph canonical labeling and the quick-pattern/canonical two-level scheme.

GAMMA's ``Aggregation`` primitive maps every embedding to its pattern graph
"by computing graph canonical label [24]" (§III-B2).  Canonicalizing each of
millions of embeddings individually is hopeless, so — like the Pangolin and
Kaleido systems GAMMA builds on — we use a two-level scheme:

1. **Quick pattern** (vectorized): relabel each embedding's vertices by
   first appearance in its edge list and pack the relabelled structure and
   label sequence into two 64-bit words.  Equal quick patterns are
   *identical* relabelled graphs, hence isomorphic; this collapses millions
   of embeddings to at most a few hundred distinct quick patterns.
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
#: Widest structure + label bits that fold into one non-negative int64.
_FOLD_BITS_LIMIT = 63


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


def first_appearance_relabel(seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise first-appearance relabeling of integer sequences.

    For each row, the first distinct value becomes 0, the second 1, and so
    on.  Returns ``(ids, fresh)``: ``uint8`` ids and a bool matrix marking
    the position where each distinct value first appears, both ``(n, m)``
    with contiguous *columns* for the O(width^2) unrolled scan (widths
    here are at most ``2 * MAX_EDGES``).  Every earlier position holding
    a value carries the same id, so any match may overwrite the default.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if seq.ndim != 2 or seq.shape[1] > 256:
        raise ValueError("seq must be 2-D (rows of <= 256-long vertex sequences)")
    n, m = seq.shape
    ids = np.zeros((m, n), dtype=np.uint8).T
    fresh = np.ones((m, n), dtype=bool).T
    next_id = np.ones(n, dtype=np.uint8)
    for j in range(1, m):
        column_ids = next_id.copy()
        for jp in range(j):
            np.copyto(column_ids, ids[:, jp], where=seq[:, jp] == seq[:, j])
        ids[:, j] = column_ids
        np.equal(column_ids, next_id, out=fresh[:, j])
        next_id += fresh[:, j]
    return ids, fresh


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
            if grouped:
                codes = Grouped(codes, np.empty(0, dtype=np.int64))
            if return_positions:
                return codes, np.empty((0, MAX_VERTICES), dtype=np.int64)
            return codes

        # Row i is [s0, d0, s1, d1, ...]; columns are contiguous.
        seq = np.empty((2 * k, n), dtype=np.int64).T
        seq[:, 0::2] = srcs
        seq[:, 1::2] = dsts
        ids, fresh = first_appearance_relabel(seq)
        vertices = int(ids.max(initial=0)) + 1
        if vertices > MAX_VERTICES:
            raise InvalidPatternError(f"at most {MAX_VERTICES} vertices per embedding")

        # Structure word: byte t = (src_id << 4) | dst_id of edge t.
        edge_bytes = np.zeros((n, 8), dtype=np.uint8)
        for t in range(k):
            edge_bytes[:, t] = (ids[:, 2 * t] << 4) | ids[:, 2 * t + 1]
        qa = edge_bytes.view("<i8").ravel()

        # Label word: byte v = label of *relabelled* vertex v (a repeated
        # vertex ORs the same label into the same byte again).
        labels_at = vertex_labels[seq.T].astype(np.int64, copy=False)
        if int(labels_at.max()) > MAX_LABEL or int(labels_at.min()) < 0:
            raise InvalidPatternError(f"labels must be in [0, {MAX_LABEL}]")
        qb = np.zeros(n, dtype=np.int64)
        for j in range(2 * k):
            qb |= labels_at[j] << (ids[:, j].astype(np.int64) << 3)

        groups, placements, inverse = self._canonicalize(qa, qb, k, vertices)
        codes = groups if grouped else groups.distinct[groups.index]
        if not return_positions:
            return codes

        # Data vertex behind each quick (first-appearance) id, per row.
        orig_at_qid = np.full((n, MAX_VERTICES), -1, dtype=np.int64)
        row_idx, col_idx = np.nonzero(fresh)
        orig_at_qid[row_idx, ids[row_idx, col_idx]] = seq[row_idx, col_idx]
        # Reorder quick ids into canonical positions per row.
        flat = placements[inverse]  # (n, MAX_VERTICES), -1 padded
        valid = flat >= 0
        positions = np.where(
            valid,
            np.take_along_axis(orig_at_qid, np.maximum(flat, 0), axis=1),
            -1,
        )
        return codes, positions

    def _canonicalize(
        self, qa: np.ndarray, qb: np.ndarray, k: int, vertices: int
    ) -> tuple[Grouped, np.ndarray, np.ndarray]:
        """Map quick keys to canonical keys, canonicalizing each distinct
        quick pattern exactly once.

        Returns ``(groups, placements, inverse)``: the per-row codes
        dictionary-encoded, the per-unique-quick-pattern canonical placement
        matrix (quick id at canonical position, -1 padded) and the
        unique-row inverse map.  Isomorphic quick patterns share a code, so
        a row's code index is its quick pattern's rank among the distinct
        codes — a gather the size of the rows through a table the size of
        the quick patterns.
        """
        uniq, inverse = self._unique_quick(qa, qb, 8 * k, 8 * vertices)
        out_codes = np.empty(len(uniq), dtype=np.int64)
        placements = np.full((len(uniq), MAX_VERTICES), -1, dtype=np.int64)
        for i, (ua, ub) in enumerate(uniq):
            cache_key = (int(ua), int(ub), k)
            cached = self._canonical_cache.get(cache_key)
            if cached is None:
                edges, labels = self._decode_quick(int(ua), int(ub), k)
                code_bytes, flat = canonical_form(edges, labels)
                digest = hashlib.blake2b(code_bytes, digest_size=8).digest()
                cached = (int.from_bytes(digest, "little", signed=True), flat)
                self._canonical_cache[cache_key] = cached
            out_codes[i] = cached[0]
            flat = cached[1]
            placements[i, : len(flat)] = flat
        distinct, rank = np.unique(out_codes, return_inverse=True)
        return Grouped(distinct, rank[inverse]), placements, inverse

    @staticmethod
    def _unique_quick(qa: np.ndarray, qb: np.ndarray, bits_a: int,
                      bits_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``(qa, qb)`` rows in lexicographic order plus each
        input row's index into them — what ``np.unique(axis=0,
        return_inverse=True)`` returns, given ``qa < 2**bits_a`` and
        ``qb < 2**bits_b``.  Pairs that fit one word are grouped on it;
        wider ones take a two-key lexsort and lead flags."""
        if bits_a + bits_b <= _FOLD_BITS_LIMIT:
            word, inverse = group_by((qa << bits_b) | qb)
            pairs = [word >> bits_b, word & ((1 << bits_b) - 1)]
            return np.stack(pairs, axis=1), inverse
        order = np.lexsort((qb, qa))
        qa_s, qb_s = qa[order], qb[order]
        lead = np.ones(len(order), dtype=bool)
        lead[1:] = (qa_s[1:] != qa_s[:-1]) | (qb_s[1:] != qb_s[:-1])
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(lead, dtype=np.int64) - 1
        return np.stack([qa_s[lead], qb_s[lead]], axis=1), inverse

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
