"""Metrics registry: counters, gauges, histogram bucket edges, snapshot."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("rule_checks_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3.0

    def test_labeled_series_independent(self):
        counter = MetricsRegistry().counter("rule_checks_total")
        counter.inc(rule="R1")
        counter.inc(rule="R2")
        counter.inc(rule="R1")
        assert counter.value(rule="R1") == 2.0
        assert counter.value(rule="R2") == 1.0
        assert counter.value() == 0.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("n")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_label_order_irrelevant(self):
        counter = MetricsRegistry().counter("n")
        counter.inc(a="x", b="y")
        assert counter.value(b="y", a="x") == 1.0


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("trials_per_s")
        gauge.set(10.0)
        gauge.set(4.5)
        assert gauge.value() == 4.5

    def test_inc_accumulates(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.inc(2.0)
        gauge.inc(-0.5)
        assert gauge.value() == 1.5


class TestHistogramBuckets:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        hist.observe(2.0)  # le semantics: lands in the 2.0 bucket
        (series,) = hist.series.values()
        assert series.counts == [0, 1, 0, 0]

    def test_value_between_edges_lands_in_upper(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        hist.observe(1.5)
        (series,) = hist.series.values()
        assert series.counts == [0, 1, 0, 0]

    def test_overflow_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(99.0)
        (series,) = hist.series.values()
        assert series.counts == [0, 0, 1]

    def test_below_first_edge(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.25)
        (series,) = hist.series.values()
        assert series.counts == [1, 0, 0]

    def test_stats_track_min_max_mean(self):
        hist = MetricsRegistry().histogram("h", buckets=(10.0,))
        for value in (1.0, 3.0, 8.0):
            hist.observe(value)
        snap = hist.snapshot()["series"][""]
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 8.0
        assert snap["mean"] == pytest.approx(4.0)

    def test_edges_sorted_on_construction(self):
        hist = MetricsRegistry().histogram("h", buckets=(5.0, 1.0, 2.0))
        assert hist.buckets == (1.0, 2.0, 5.0)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", buckets=())


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("n") is registry.counter("n")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ObservabilityError):
            registry.gauge("n")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("b_counter").inc(rule="R1")
        registry.gauge("a_gauge").set(2.0)
        registry.histogram("c_hist", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["format"] == "repro-metrics"
        assert snap["version"] == 1
        assert list(snap["metrics"]) == ["a_gauge", "b_counter", "c_hist"]
        assert snap["metrics"]["b_counter"]["type"] == "counter"
        assert snap["metrics"]["b_counter"]["series"]["rule=R1"] == 1.0

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())


class TestPrometheusHistogramEdges:
    """Exposition-format edge cases: +Inf overflow, monotonicity, escaping."""

    def _bucket_counts(self, text, prefix):
        counts = []
        for line in text.splitlines():
            if line.startswith(f"{prefix}_bucket"):
                counts.append(float(line.rsplit(" ", 1)[1]))
        return counts

    def test_all_observations_above_edges_land_only_in_inf(self):
        from repro.obs.metrics import to_prometheus_text

        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (10.0, 20.0, 30.0):
            hist.observe(value)
        text = to_prometheus_text(registry.snapshot())
        assert 'h_bucket{le="1.0"} 0' in text
        assert 'h_bucket{le="2.0"} 0' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_bucket_series_is_monotone_and_inf_equals_count(self):
        from repro.obs.metrics import to_prometheus_text

        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        text = to_prometheus_text(registry.snapshot())
        counts = self._bucket_counts(text, "h")
        assert counts == sorted(counts), "cumulative buckets must not dip"
        assert counts[-1] == 5.0  # +Inf bucket equals the series count
        assert "h_count 5" in text

    def test_empty_histogram_still_exposes_inf_bucket(self):
        from repro.obs.metrics import to_prometheus_text

        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5, kind="node")
        text = to_prometheus_text(registry.snapshot())
        # every series ends with the catch-all bucket, labels preserved
        assert 'h_bucket{kind="node",le="+Inf"} 1' in text

    def test_newline_in_label_value_escaped(self):
        from repro.obs.metrics import to_prometheus_text

        registry = MetricsRegistry()
        registry.counter("c").inc(reason="line one\nline two")
        text = to_prometheus_text(registry.snapshot())
        assert 'reason="line one\\nline two"' in text
        # the exposition text itself must stay one sample per line
        sample_lines = [ln for ln in text.splitlines() if ln.startswith("c{")]
        assert len(sample_lines) == 1

    def test_backslash_and_quote_escaped(self):
        from repro.obs.metrics import to_prometheus_text

        registry = MetricsRegistry()
        registry.counter("c").inc(path='C:\\tmp\\"x"')
        text = to_prometheus_text(registry.snapshot())
        assert 'path="C:\\\\tmp\\\\\\"x\\""' in text
