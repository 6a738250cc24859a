"""Unit tests for the metrics registry: counters, histograms, merging."""

import math

import pytest

from repro.obs.metrics import (
    Histogram,
    Metrics,
    histogram_from_snapshot,
)


class TestCounters:
    def test_count_accumulates(self):
        m = Metrics()
        m.count("x")
        m.count("x", 4)
        assert m.counter("x") == 5

    def test_missing_counter_reads_zero(self):
        assert Metrics().counter("nope") == 0

    def test_merge_counters_with_prefix(self):
        m = Metrics()
        m.merge_counters({"joins": 3, "qe": 7}, prefix="guard.")
        assert m.counter("guard.joins") == 3
        assert m.counter("guard.qe") == 7


class TestHistograms:
    def test_observe_tracks_aggregates(self):
        m = Metrics()
        for v in (2, 5, 3):
            m.observe("sizes", v)
        h = m.histogram("sizes")
        assert h.count == 3
        assert h.total == 10
        assert h.min == 2
        assert h.max == 5
        assert h.mean == pytest.approx(10 / 3)

    def test_missing_histogram_is_none(self):
        assert Metrics().histogram("nope") is None

    def test_histogram_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1)
        a.observe(3)
        b.observe(10)
        a.merge(b)
        assert a.count == 3
        assert a.total == 14
        assert a.max == 10


class TestSnapshotAndMerge:
    def test_snapshot_shape(self):
        m = Metrics()
        m.count("c", 2)
        m.observe("h", 1.5)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["total"] == 1.5

    def test_merge_combines_both_kinds(self):
        a, b = Metrics(), Metrics()
        a.count("c", 1)
        b.count("c", 2)
        b.observe("h", 4)
        a.merge(b)
        assert a.counter("c") == 3
        assert a.histogram("h").total == 4


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram()
        assert h.quantile(0.5) is None

    def test_single_value_reports_itself(self):
        h = Histogram()
        h.observe(3.0)
        for q in (0.5, 0.95, 0.99):
            assert h.quantile(q) == pytest.approx(3.0)

    def test_quantiles_are_monotone_and_bounded(self):
        h = Histogram()
        for i in range(1, 1001):
            h.observe(i / 1000.0)
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert h.min <= p50 <= p95 <= p99 <= h.max

    def test_estimate_within_a_factor_of_sqrt_two(self):
        h = Histogram()
        for i in range(1, 1001):
            h.observe(i / 1000.0)
        # true p50 = 0.5; the power-of-two buckets guarantee sqrt(2)
        assert 0.5 / math.sqrt(2) <= h.quantile(0.5) <= 0.5 * math.sqrt(2)
        assert 0.95 / math.sqrt(2) <= h.quantile(0.95) <= 0.95 * math.sqrt(2)

    def test_skewed_tail_separates_p50_from_p99(self):
        h = Histogram()
        for _ in range(98):
            h.observe(0.001)
        h.observe(10.0)
        h.observe(10.0)
        # estimates are geometric bucket midpoints: good to sqrt(2)
        assert h.quantile(0.5) == pytest.approx(0.001, rel=0.5)
        assert h.quantile(0.99) > 1.0

    def test_zero_and_negative_values_land_in_bucket_zero(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.quantile(0.5) is not None  # no crash; clamped to min/max

    def test_snapshot_carries_quantiles(self):
        h = Histogram()
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] == h.quantile(0.5)
        assert snap["p95"] == h.quantile(0.95)
        assert snap["p99"] == h.quantile(0.99)
        assert snap["buckets"]

    def test_snapshot_round_trip_preserves_quantiles(self):
        h = Histogram()
        for i in range(100):
            h.observe(0.001 * (i + 1))
        rebuilt = histogram_from_snapshot(h.snapshot())
        for q in (0.5, 0.95, 0.99):
            assert rebuilt.quantile(q) == pytest.approx(h.quantile(q))

    def test_pre_bucket_snapshot_degrades_to_bounds(self):
        # documents written before buckets existed: no "buckets" key
        rebuilt = histogram_from_snapshot(
            {"count": 3, "total": 9.0, "min": 1.0, "max": 5.0}
        )
        assert rebuilt.quantile(0.5) == pytest.approx(5.0)  # max clamp

    def test_merge_combines_buckets(self):
        a, b = Histogram(), Histogram()
        for _ in range(90):
            a.observe(0.001)
        for _ in range(10):
            b.observe(8.0)
        a.merge(b)
        assert a.quantile(0.5) == pytest.approx(0.001, rel=0.5)
        assert a.quantile(0.99) == pytest.approx(8.0)
