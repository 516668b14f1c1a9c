"""Sort-based group-by over int64 keys: one value sort plus a run-length
pass — what the cost model bills (paper Optimization 3), and in NumPy ~10x
cheaper than the argsort / stable sort ``np.unique`` needs for an index."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Widest ``key bits + row-index bits`` that fit a non-negative int64.
_TAG_BITS_LIMIT = 63


class Grouped(NamedTuple):
    """Keys dictionary-encoded: row ``i`` holds ``distinct[index[i]]``, and
    ``distinct`` is ascending and unique."""

    distinct: np.ndarray
    index: np.ndarray


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    lead = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=lead[1:])
    return lead


def group_by(keys: np.ndarray) -> Grouped:
    """Distinct keys in ascending order and each row's index into them —
    ``np.unique(keys, return_inverse=True)``."""
    keys = np.asarray(keys, dtype=np.int64)
    ordered = np.sort(keys)
    distinct = ordered[_run_starts(ordered)]
    return Grouped(distinct, np.searchsorted(distinct, keys))


def first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of the first row holding each distinct key, in ascending key
    order — ``np.unique(keys, return_index=True)[1]``.  Non-negative int64
    keys with room for the row index below them are value-sorted as
    ``(key << index_bits) | row``; the rest take the stable sort."""
    index_bits = (len(keys) - 1).bit_length()
    if len(keys) == 0 or int(keys.min()) < 0 or \
            int(keys.max()).bit_length() + index_bits > _TAG_BITS_LIMIT:
        return np.unique(keys, return_index=True)[1]
    tagged = (keys << index_bits) | np.arange(len(keys), dtype=np.int64)
    tagged.sort()
    return tagged[_run_starts(tagged >> index_bits)] & ((1 << index_bits) - 1)
