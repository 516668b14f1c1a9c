"""Percentiles: nearest rank, and no tail without ten samples beyond it."""

import pytest

from benchmarks.perf import stats


def test_nearest_rank_returns_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 80) == 4.0
    assert stats.percentile(values, 81) == 5.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 0) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_ten_samples_beyond_rule():
    # 199 samples: rank ceil(0.95 * 199) = 190, nine beyond -> no tail.
    assert stats.samples_beyond(199, 95) == 9
    assert stats.tail_percentile(list(range(199)), 95) is None
    # 200 samples: rank 190, ten beyond -> p95 is the 190th smallest.
    assert stats.samples_beyond(200, 95) == 10
    assert stats.tail_percentile(list(range(200)), 95) == 189
    # The issue's sizing: 1 200 served queries leave 60 beyond p95.
    assert stats.samples_beyond(1200, 95) == 60
    assert stats.tail_percentile([1.0] * 14, 95) is None


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics
    first, __, third = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((third - first) / 14.5)
