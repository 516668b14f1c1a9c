"""Packed-vs-void-key equivalence of embedding-set deduplication.

``dedup_embeddings`` sorts each row with a column network and packs it
into a single int64 key when ``cols * bits`` fits ``_PACK_BITS_LIMIT``,
then finds first occurrences by one value sort of index-tagged keys (or
the stable sort when key + index bits pass ``_TAG_BITS_LIMIT``); wider
rows keep the void-dtype set-key compare.  All three must keep the exact
same first-occurrence rows — bit-for-bit identical surviving tables,
simulated clocks, and counters.  ``REFERENCE`` runs the straight-line
stack of :mod:`tests.twins`, whose zero limits key every row by void.
"""

from contextlib import contextmanager

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.aggregation import (
    dedup_embeddings,
    embedding_set_keys,
    sorted_columns,
)
from repro.core.embedding_table import EDGE, EmbeddingTable
from repro.gpusim import make_platform
from repro.graph import groupby
from tests.twins import ARMS, aggregation

FAST, REFERENCE = ARMS["fast"], ARMS["reference"]


@contextmanager
def STABLE():
    """Packed keys, but first occurrences by the stable sort."""
    with mock.patch.object(groupby, "_TAG_BITS_LIMIT", 0):
        yield


def _table_with_rows(platform, rows: np.ndarray) -> EmbeddingTable:
    table = EmbeddingTable(platform, EDGE)
    table.seed(np.ascontiguousarray(rows[:, 0]))
    for col in range(1, rows.shape[1]):
        table.append_column(
            np.ascontiguousarray(rows[:, col]),
            np.arange(len(rows), dtype=np.int64),
        )
    return table


def _dedup_in(stack, rows: np.ndarray):
    with stack():
        platform = make_platform()
        table = _table_with_rows(platform, rows)
        removed = dedup_embeddings(platform, table)
        return (removed, table.materialize().tolist(),
                platform.clock.snapshot(),
                platform.counters.snapshot(include_zero=True))


@settings(max_examples=60, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**31 - 1),
    n=hst.integers(min_value=1, max_value=120),
    width=hst.integers(min_value=1, max_value=4),
    id_bound=hst.sampled_from([5, 200, 70_000]),
)
def test_dedup_fast_matches_reference(seed, n, width, id_bound):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, id_bound, size=(n, width), dtype=np.int64)
    fast = _dedup_in(FAST, rows)
    assert fast == _dedup_in(REFERENCE, rows)
    assert fast == _dedup_in(STABLE, rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**31 - 1),
    n=hst.integers(min_value=0, max_value=40),
    width=hst.integers(min_value=1, max_value=7),
    low=hst.sampled_from([0, -5, 2**40]),
)
def test_column_network_matches_row_sort(seed, n, width, low):
    rng = np.random.default_rng(seed)
    mats = rng.integers(low, low + 9, size=(n, width), dtype=np.int64)
    before = mats.copy()
    columns = sorted_columns(mats)
    assert len(columns) == width
    assert np.stack(columns, axis=1).tolist() == np.sort(mats, axis=1).tolist()
    assert mats.tolist() == before.tolist()  # the input rows stay as they were


def test_tagged_and_stable_first_occurrence_both_reached():
    """8 bits of key + 3 of row index tag; two 31-bit ids (62 bits of key,
    still packed) + 3 do not, and dedup keeps the first of each set."""
    narrow = np.array([[5, 9], [9, 5], [2, 7], [7, 2], [5, 9]], dtype=np.int64)
    wide = narrow << 27
    for rows, tagged in [(narrow, True), (wide, False)]:
        with mock.patch.object(groupby.np, "unique", wraps=np.unique) as stable:
            removed, mats, __, __ = _dedup_in(FAST, rows)
        assert (stable.call_count == 0) == tagged
        assert removed == 3 and mats == rows[[0, 2]].tolist()


def _first_occurrences(rows: np.ndarray) -> list:
    seen, kept = set(), []
    for row in rows.tolist():
        key = tuple(sorted(row))
        if key not in seen:
            seen.add(key)
            kept.append(row)
    return kept


def test_dedup_wide_rows_fall_back_identically():
    """Rows too wide for the int64 packing take the set-key path as
    shipped and keep the first occurrence of each id set."""
    rng = np.random.default_rng(7)
    # 5 columns x 17-bit ids = 85 bits > the 62-bit packing bound.
    rows = rng.integers(0, 100_000, size=(64, 5), dtype=np.int64)
    rows[10] = rows[3][::-1]  # same set, different order -> duplicate
    with mock.patch.object(aggregation, "embedding_set_keys",
                           wraps=embedding_set_keys) as keyed:
        fast = _dedup_in(FAST, rows)
    assert keyed.call_count == 1
    assert fast == _dedup_in(REFERENCE, rows)
    assert fast[0] >= 1
    assert fast[1] == _first_occurrences(rows)
    # The same id sets narrowed to 3 columns pack (51 bits) and agree with
    # the oracle too, so the two keyings group alike.
    narrow = rows[:, :3].copy()
    narrow[10] = narrow[3][::-1]
    with mock.patch.object(aggregation, "embedding_set_keys",
                           side_effect=AssertionError):
        assert _dedup_in(FAST, narrow)[1] == _first_occurrences(narrow)


@pytest.mark.parametrize("bits,packs", [(31, True), (32, False)])
def test_pack_limit_boundary(bits, packs):
    """Two columns of ``bits``-bit ids: 62 bits pack, 64 do not."""
    rows = np.array([[1, (1 << bits) - 1], [(1 << bits) - 1, 1], [2, 3]],
                    dtype=np.int64)
    with mock.patch.object(aggregation, "embedding_set_keys",
                           wraps=embedding_set_keys) as keyed:
        removed, mats, __, __ = _dedup_in(FAST, rows)
    assert keyed.call_count == (0 if packs else 1)
    assert removed == 1
    assert mats == rows[[0, 2]].tolist()


def test_set_keys_order_insensitive():
    rows = np.array([[3, 1, 2], [2, 3, 1], [1, 2, 4]], dtype=np.int64)
    keys = embedding_set_keys(rows)
    assert keys[0] == keys[1]
    assert keys[0] != keys[2]


def test_dedup_keeps_first_occurrence():
    rows = np.array([[5, 9], [9, 5], [2, 7], [7, 2], [5, 9]],
                    dtype=np.int64)
    for mode in (FAST, REFERENCE, STABLE):
        removed, mats, __, __ = _dedup_in(mode, rows)
        assert removed == 3
        assert mats == [[5, 9], [2, 7]]
