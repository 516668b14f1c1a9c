# gammalint-fixture: src/repro/gpusim/fixture_hot.py
"""Seeded violations for the numpy-dtype checker (hot-module scope)."""

import numpy as np


def missing_dtypes(n):
    a = np.arange(n)  # expect[dtype]
    b = np.zeros(n)  # expect[dtype]
    c = np.empty(n, dtype=np.int64)
    d = np.full(n, -1, np.int64)
    e = np.zeros_like(a)
    return a, b, c, d, e


def unguarded_packing(rows, values, n):
    return rows * np.int64(n) + values  # expect[overflow]


def shifted_packing(u, v):
    return (u << 32) | v  # expect[overflow]


_KEY_LIMIT = 1 << 62  # constant shift folds to a plain int: no finding


def guarded_packing(rows, values, n):
    if n > _KEY_LIMIT:
        raise ValueError("packing would overflow int64")
    return rows * np.int64(n) + values


def waived_packing(rows, values, n):
    return rows * np.int64(n) + values  # gammalint: allow[overflow] -- fixture: n is bounded by the caller

