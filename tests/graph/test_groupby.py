"""The sort-based group-by helper against ``np.unique``.

``group_by`` must equal ``np.unique(return_inverse=True)`` and
``first_occurrence`` must equal ``np.unique(return_index=True)[1]`` on
every int64 input; the second has a size threshold (key bits + row-index
bits against ``_TAG_BITS_LIMIT``) that is exercised on both sides.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.graph import groupby
from repro.graph.groupby import first_occurrence, group_by

INT64 = np.iinfo(np.int64)

#: Key pools that sit on the interesting boundaries: tiny alphabets (long
#: runs), the top of the non-negative range, and negatives.
_POOLS = [
    hst.integers(0, 3),
    hst.integers(0, 2**20),
    hst.integers(2**62 - 2, 2**62 + 2),
    hst.integers(INT64.max - 2, INT64.max),
    hst.integers(-3, 3),
    hst.integers(INT64.min, INT64.max),
]
_keys = hst.one_of(*[hst.lists(pool, min_size=0, max_size=60) for pool in _POOLS])


def _check(keys: np.ndarray) -> None:
    distinct, inverse = group_by(keys)
    want_distinct, want_inverse = np.unique(keys, return_inverse=True)
    assert distinct.dtype == np.int64 and distinct.tolist() == want_distinct.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    firsts = first_occurrence(keys)
    assert firsts.dtype == np.int64
    assert firsts.tolist() == np.unique(keys, return_index=True)[1].tolist()


@settings(max_examples=200, deadline=None)
@given(_keys)
def test_matches_np_unique(values):
    _check(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("values", [
    [], [7], [-1], [5, 5, 5, 5], [2**62, 0, 2**62], [INT64.max, INT64.min, 0, INT64.max],
])
def test_edge_cases(values):
    _check(np.array(values, dtype=np.int64))


def _tagged_path_taken(keys: np.ndarray) -> bool:
    """Whether ``first_occurrence`` value-sorted tagged keys (no stable
    ``np.unique`` call)."""
    with mock.patch.object(groupby.np, "unique", wraps=np.unique) as stable:
        firsts = first_occurrence(keys)
    assert firsts.tolist() == np.unique(keys, return_index=True)[1].tolist()
    return stable.call_count == 0


@pytest.mark.parametrize("n", [2, 5, 1000])
def test_tag_bits_threshold_both_sides(n):
    """``key_bits + index_bits`` of 63 tags; 64 takes the stable sort."""
    index_bits = (n - 1).bit_length()
    top = 1 << (63 - index_bits)  # the smallest key one bit too wide
    keys = np.arange(n, dtype=np.int64) % 3
    keys[-1] = keys[0] = top - 1
    assert _tagged_path_taken(keys)
    keys[-1] = keys[0] = top
    assert not _tagged_path_taken(keys)


def test_negative_keys_and_forced_fallback_take_the_stable_sort():
    keys = np.array([3, -1, 3, -1, 0], dtype=np.int64)
    assert not _tagged_path_taken(keys)
    assert _tagged_path_taken(np.abs(keys))
    with mock.patch.object(groupby, "_TAG_BITS_LIMIT", 0):
        assert not _tagged_path_taken(np.abs(keys))


def test_first_occurrence_does_not_modify_its_input():
    keys = np.array([4, 1, 4, 1], dtype=np.int64)
    first_occurrence(keys)
    group_by(keys)
    assert keys.tolist() == [4, 1, 4, 1]
