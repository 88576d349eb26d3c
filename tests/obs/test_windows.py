"""Windowed aggregation over metric snapshots (repro.obs.windows)."""

import pytest

from repro.obs.registry import OVERFLOW_LABEL, MetricsRegistry
from repro.obs.windows import (
    WindowedAggregator,
    label_values,
    merge_histogram,
    sum_values,
)


def counter_family(name, *series):
    return {
        "name": name,
        "type": "counter",
        "help": "",
        "series": [
            {"labels": dict(labels), "value": float(value)}
            for labels, value in series
        ],
    }


class TestPlainSnapshotHelpers:
    def test_sum_values_filters_on_label_subset(self):
        snapshot = [
            counter_family(
                "requests_total",
                ({"site": "anl", "code": "OK"}, 3),
                ({"site": "anl", "code": "DENIED"}, 2),
                ({"site": "lbnl", "code": "OK"}, 7),
            )
        ]
        assert sum_values(snapshot, "requests_total") == 12.0
        assert sum_values(snapshot, "requests_total", {"site": "anl"}) == 5.0
        assert (
            sum_values(snapshot, "requests_total", {"site": "anl", "code": "OK"})
            == 3.0
        )
        assert sum_values(snapshot, "missing_total") == 0.0

    def test_sum_values_counts_histogram_events(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.9):
            registry.observe("latency_seconds", value)
        snapshot = registry.snapshot()
        assert sum_values(snapshot, "latency_seconds") == 3

    def test_overflow_series_excluded_by_default(self):
        snapshot = [
            counter_family(
                "requests_total",
                ({"site": "anl"}, 5),
                ({"site": OVERFLOW_LABEL}, 100),
            )
        ]
        assert sum_values(snapshot, "requests_total") == 5.0
        assert (
            sum_values(snapshot, "requests_total", include_overflow=True)
            == 105.0
        )

    def test_merge_histogram_unions_bucket_layouts(self):
        snapshot = [
            {
                "name": "lat",
                "type": "histogram",
                "help": "",
                "series": [
                    {
                        "labels": {"s": "a"},
                        "buckets": [[0.1, 1], [1.0, 3], [float("inf"), 3]],
                        "sum": 0.9,
                        "count": 3,
                    },
                    {
                        "labels": {"s": "b"},
                        "buckets": [[0.5, 2], [float("inf"), 2]],
                        "sum": 0.4,
                        "count": 2,
                    },
                ],
            }
        ]
        buckets, total_sum, total_count = merge_histogram(snapshot, "lat")
        assert [bound for bound, _ in buckets] == [0.1, 0.5, 1.0, float("inf")]
        assert total_sum == pytest.approx(1.3)
        assert total_count == 5

    def test_label_values_sorted_and_overflow_free(self):
        snapshot = [
            counter_family(
                "requests_total",
                ({"site": "lbnl"}, 1),
                ({"site": "anl"}, 1),
                ({"site": OVERFLOW_LABEL}, 1),
            )
        ]
        assert label_values(snapshot, "requests_total", "site") == (
            "anl",
            "lbnl",
        )


class TestWindowedAggregator:
    def build(self, **kwargs):
        registry = MetricsRegistry()
        aggregator = WindowedAggregator(registry.snapshot, **kwargs)
        return registry, aggregator

    def test_constructor_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            WindowedAggregator(registry.snapshot, window=0)
        with pytest.raises(ValueError):
            WindowedAggregator(registry.snapshot, retain=0)

    def test_tick_captures_per_window_deltas(self):
        registry, aggregator = self.build(window=5.0)
        registry.count("jobs_total", amount=3)
        frame = aggregator.tick(5.0)
        assert frame.index == 0
        assert (frame.start, frame.end, frame.width) == (0.0, 5.0, 5.0)
        registry.count("jobs_total", amount=2)
        aggregator.tick(10.0)
        assert aggregator.delta("jobs_total", windows=1) == 2.0
        assert aggregator.delta("jobs_total") == 5.0
        assert aggregator.value("jobs_total") == 5.0

    def test_clock_moving_backwards_raises(self):
        _, aggregator = self.build()
        aggregator.tick(5.0)
        with pytest.raises(ValueError):
            aggregator.tick(4.0)

    def test_maybe_tick_waits_for_a_full_window(self):
        registry, aggregator = self.build(window=5.0)
        assert aggregator.maybe_tick(4.9) is None
        assert len(aggregator) == 0
        assert aggregator.maybe_tick(5.0) is not None
        # The next window starts where the last one closed.
        assert aggregator.maybe_tick(9.9) is None
        assert aggregator.maybe_tick(10.5) is not None

    def test_wide_windows_divide_rate_by_actual_time(self):
        registry, aggregator = self.build(window=5.0)
        registry.count("jobs_total", amount=20)
        aggregator.tick(10.0)  # one double-width window
        assert aggregator.rate("jobs_total") == pytest.approx(2.0)
        assert aggregator.rate("jobs_total", windows=5) == pytest.approx(2.0)

    def test_rate_is_zero_before_any_window(self):
        _, aggregator = self.build()
        assert aggregator.rate("jobs_total") == 0.0
        assert aggregator.latest() == []

    def test_retain_bounds_the_ring(self):
        registry, aggregator = self.build(window=1.0, retain=3)
        for step in range(1, 6):
            registry.count("jobs_total")
            aggregator.tick(float(step))
        assert len(aggregator) == 3
        assert [frame.index for frame in aggregator.frames()] == [2, 3, 4]
        assert aggregator.delta("jobs_total") == 3.0
        assert aggregator.elapsed() == 3.0

    def test_quantile_over_multiple_windows(self):
        registry, aggregator = self.build(window=1.0)
        for value in (0.01, 0.01, 0.01):
            registry.observe("lat_seconds", value)
        aggregator.tick(1.0)
        for value in (2.0, 2.0, 2.0):
            registry.observe("lat_seconds", value)
        aggregator.tick(2.0)
        # Over both windows half the observations are slow...
        assert aggregator.quantile("lat_seconds", 0.25) < 0.5
        assert aggregator.quantile("lat_seconds", 0.99) > 1.0
        # ...but the last window alone is all slow.
        assert aggregator.quantile("lat_seconds", 0.25, windows=1) > 1.0

    def test_fraction_above_uses_conservative_bucket_cut(self):
        registry, aggregator = self.build(window=1.0)
        # Default buckets include 0.25 and 0.5; 0.3 lands in (0.25, 0.5].
        for value in (0.1, 0.1, 0.1, 0.9):
            registry.observe("lat_seconds", value)
        aggregator.tick(1.0)
        # Threshold between bounds: observations up to the next bound
        # (0.5) count as good, so only the 0.9 observation is bad.
        fraction, total = aggregator.fraction_above("lat_seconds", 0.3)
        assert total == 4
        assert fraction == pytest.approx(0.25)
        empty_fraction, empty_total = aggregator.fraction_above(
            "lat_seconds", 0.3, windows=0
        )
        assert (empty_fraction, empty_total) == (0.0, 0)

    def test_label_values_across_window_deltas(self):
        registry, aggregator = self.build(window=1.0)
        registry.count("req_total", source="vo")
        aggregator.tick(1.0)
        registry.count("req_total", source="local")
        aggregator.tick(2.0)
        assert aggregator.label_values("req_total", "source") == (
            "local",
            "vo",
        )
        assert aggregator.label_values("req_total", "source", windows=1) == (
            "local",
        )

    def test_window_summaries_are_json_ready(self):
        registry, aggregator = self.build(window=1.0)
        registry.count("jobs_total")
        aggregator.tick(1.0)
        summaries = aggregator.window_summaries()
        assert len(summaries) == 1
        assert summaries[0]["index"] == 0
        assert summaries[0]["delta"][0]["name"] == "jobs_total"


class TestOverflowSeries:
    """`<overflow>` series never leak into label-filtered health
    queries."""

    def overflowing_registry(self):
        registry = MetricsRegistry(max_series=2)
        registry.count("req_total", source="vo")
        registry.count("req_total", source="local")
        registry.count("req_total", source="cas")  # folds into overflow
        registry.count("req_total", source="akenti")  # same overflow bucket
        return registry

    def test_overflow_never_becomes_a_health_target(self):
        registry = self.overflowing_registry()
        aggregator = WindowedAggregator(registry.snapshot, window=1.0)
        aggregator.tick(1.0)
        assert aggregator.label_values("req_total", "source") == (
            "local",
            "vo",
        )
        # Label-filtered deltas skip the folded series entirely.
        assert aggregator.delta("req_total", source="vo") == 1.0
        assert aggregator.delta("req_total") == 2.0
        assert (
            sum_values(
                aggregator.latest(), "req_total", include_overflow=True
            )
            == 4.0
        )
