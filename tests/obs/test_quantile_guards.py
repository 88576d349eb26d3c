"""Quantile estimation guards: empty and degenerate data.

`Histogram.quantile` (live series) and `histogram_quantile` (exported
cumulative pairs) must answer 0.0 — never raise, never divide by
zero — on empty or degenerate bucket data, and must agree with each
other on the same observations.
"""

import pytest

from repro.obs.exporters import histogram_quantile
from repro.obs.registry import Histogram

INF = float("inf")


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 0.0

    def test_quantile_out_of_range_raises(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                histogram.quantile(q)

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.1))  # unsorted

    def test_single_observation(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05)
        assert 0.0 < histogram.quantile(0.5) <= 0.1

    def test_everything_in_the_infinite_bucket(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        for _ in range(10):
            histogram.observe(50.0)
        # No upper bound to interpolate toward: report the last finite
        # bound rather than inventing a number.
        assert histogram.quantile(0.99) == 1.0


class TestExportedQuantile:
    def test_empty_pairs_is_zero(self):
        assert histogram_quantile([], 0.99) == 0.0

    def test_all_zero_counts_is_zero(self):
        assert histogram_quantile([[0.1, 0], [1.0, 0], [INF, 0]], 0.5) == 0.0

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            histogram_quantile([[1.0, 1], [INF, 1]], 2.0)

    def test_single_infinite_bucket_reports_zero(self):
        assert histogram_quantile([[INF, 5]], 0.99) == 0.0

    def test_zero_count_buckets_are_skipped_not_divided_by(self):
        # Flat cumulative runs (empty buckets) between populated ones.
        pairs = [[0.1, 0], [0.25, 4], [0.5, 4], [1.0, 4], [INF, 8]]
        value = histogram_quantile(pairs, 0.5)
        assert 0.1 < value <= 0.25

    def test_matches_live_histogram_on_the_same_data(self):
        histogram = Histogram(buckets=(0.1, 0.5, 1.0))
        for value in (0.05, 0.2, 0.3, 0.7, 0.9):
            histogram.observe(value)
        pairs = histogram.cumulative()
        for q in (0.1, 0.5, 0.9):
            assert histogram_quantile(pairs, q) == pytest.approx(
                histogram.quantile(q)
            )
