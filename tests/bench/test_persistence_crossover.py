"""Tests for the crossover sweep (the device-size crossover map)."""

import pytest

from repro.bench.crossover import device_size_sweep
from repro.graph import datasets


@pytest.fixture(autouse=True)
def clear_dataset_cache():
    yield
    datasets.clear_cache()


class TestCrossover:
    def test_small_sweep(self):
        report = device_size_sweep(dataset="EA", k=3, sizes_mib=(1, 4))
        assert len(report.rows) == 2
        # GAMMA column present and numeric at the largest size
        last = report.rows[-1]
        float(last["GAMMA"])  # parses

    def test_gamma_needs_no_more_than_incore(self):
        report = device_size_sweep(dataset="CP", k=3, sizes_mib=(1, 4, 16))
        assert all(c.startswith("[OK") for c in report.checks)
