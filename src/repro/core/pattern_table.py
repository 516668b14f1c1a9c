"""The pattern table (paper §III-B2).

``Aggregation`` maps each embedding to its pattern's canonical code and
counts instances per pattern.  The pattern table holds those
``(canonical code -> support)`` pairs across FPM iterations; ``Filtering``
prunes patterns below the support threshold and the embeddings that
instantiate them (Algorithm 2, lines 3–4).
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np


class PatternTable:
    """Sorted canonical codes with per-pattern supports."""

    def __init__(self) -> None:
        self.codes = np.empty(0, dtype=np.int64)
        self.supports = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    def merge(self, codes: np.ndarray, counts: np.ndarray) -> None:
        """Fold freshly aggregated ``(codes, counts)`` into the table.

        Codes already present accumulate support; new codes are inserted.
        Input codes must be unique (the output of the aggregation sort).
        """
        codes = np.asarray(codes, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if codes.shape != counts.shape:
            raise ValueError("codes/counts must align")
        if len(codes) == 0:
            return
        if len(np.unique(codes)) != len(codes):
            raise ValueError("merge expects unique codes")
        merged_codes = np.concatenate([self.codes, codes])
        merged_counts = np.concatenate([self.supports, counts])
        uniq, inverse = np.unique(merged_codes, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, merged_counts)
        self.codes = uniq
        self.supports = sums

    def support_of(self, codes: np.ndarray) -> np.ndarray:
        """Support per code (0 for unknown codes)."""
        codes = np.asarray(codes, dtype=np.int64)
        if len(self.codes) == 0:
            return np.zeros(len(codes), dtype=np.int64)
        pos = np.searchsorted(self.codes, codes)
        pos = np.minimum(pos, len(self.codes) - 1)
        found = self.codes[pos] == codes
        out = np.where(found, self.supports[pos], 0)
        return out.astype(np.int64)

    def prune_below(self, min_support: int) -> int:
        """Drop patterns with support below the threshold; returns the
        number removed."""
        keep = self.supports >= min_support
        removed = int((~keep).sum())
        self.codes = self.codes[keep]
        self.supports = self.supports[keep]
        return removed

    def frequent(self, min_support: int) -> "PatternTable":
        """A new table containing only patterns at/above the threshold."""
        out = PatternTable()
        keep = self.supports >= min_support
        out.codes = self.codes[keep].copy()
        out.supports = self.supports[keep].copy()
        return out

    def as_dict(self) -> Dict[int, int]:
        return {int(c): int(s) for c, s in zip(self.codes, self.supports)}

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(zip(self.codes.tolist(), self.supports.tolist()))

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes + self.supports.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatternTable({len(self)} patterns)"
