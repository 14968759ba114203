"""Histogram metrics: buckets, quantiles, labels, snapshots."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestHistogram:
    def test_buckets_are_log_spaced(self):
        ratios = [
            b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        ]
        assert all(r == pytest.approx(2.0) for r in ratios)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 60  # covers the whole latency range

    def test_record_and_summary(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004, 0.1):
            hist.record(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.107)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.1)

    def test_quantiles_accurate_within_bucket_resolution(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-7.0, sigma=1.0, size=20_000)
        hist = Histogram()
        for value in values:
            hist.record(value)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            estimate = hist.quantile(q)
            # factor-2 buckets bound the relative error to one bucket
            assert exact / 2 <= estimate <= exact * 2

    def test_quantile_clamped_to_observed_range(self):
        hist = Histogram()
        hist.record(0.5)
        assert hist.quantile(0.0) == pytest.approx(0.5)
        assert hist.quantile(1.0) == pytest.approx(0.5)

    def test_empty_quantile_is_none(self):
        assert Histogram().quantile(0.95) is None

    def test_merge_accumulates(self):
        a, b = Histogram(), Histogram()
        for value in (0.001, 0.01):
            a.record(value)
        for value in (0.1, 1.0):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.max == pytest.approx(1.0)
        assert a.min == pytest.approx(0.001)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram((1.0,)).merge(Histogram((2.0,)))

    def test_dict_round_trip_is_json_stable(self):
        hist = Histogram()
        for value in (1e-7, 0.003, 0.5, 120.0):  # under/over-flow too
            hist.record(value)
        data = json.loads(json.dumps(hist.to_dict()))
        back = Histogram.from_dict(data)
        assert back.count == hist.count
        assert back.sum == pytest.approx(hist.sum)
        assert back.quantile(0.5) == pytest.approx(hist.quantile(0.5))

    def test_overflow_lands_in_inf_bucket(self):
        hist = Histogram()
        hist.record(1e9)
        buckets = dict(hist.to_dict()["buckets"])
        assert buckets.get(None) == 1
        assert hist.quantile(0.99) == pytest.approx(1e9)  # max clamp


class TestLabeledRegistry:
    def test_series_split_and_merged_views(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.001, {"path": "covered"})
        registry.observe("lat", 0.002, {"path": "covered"})
        registry.observe("lat", 0.100, {"path": "solved"})
        covered = registry.observation("lat", {"path": "covered"})
        assert covered["count"] == 2
        merged = registry.observation("lat")  # labels=None merges all
        assert merged["count"] == 3
        assert merged["max"] == pytest.approx(0.100)

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0, {"b": "2", "a": "1"})
        registry.observe("lat", 2.0, {"a": "1", "b": "2"})
        assert registry.observation("lat", {"a": "1", "b": "2"})["count"] == 2

    def test_presorted_tuple_fast_path(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0, (("a", "1"), ("b", "2")))
        assert registry.observation("lat", {"b": "2"})["count"] == 1

    def test_subset_label_match(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0, {"dataset": "x", "path": "covered"})
        registry.observe("lat", 2.0, {"dataset": "x", "path": "solved"})
        registry.observe("lat", 3.0, {"dataset": "y", "path": "solved"})
        assert registry.observation("lat", {"dataset": "x"})["count"] == 2
        assert registry.observation("lat", {"path": "solved"})["count"] == 2

    def test_merged_histogram_quantile(self):
        registry = MetricsRegistry()
        for _ in range(99):
            registry.observe("lat", 0.001, {"path": "covered"})
        registry.observe("lat", 10.0, {"path": "solved"})
        merged = registry.histogram("lat")
        assert merged.count == 100
        assert merged.quantile(0.5) == pytest.approx(0.001, rel=1.0)
        assert merged.quantile(0.999) > 1.0

    def test_snapshot_contains_labeled_histograms(self):
        registry = MetricsRegistry()
        registry.incr("requests")
        registry.set_gauge("size", 3)
        registry.observe("lat", 0.01, {"path": "solved"})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["gauges"]["size"] == 3
        (key,) = [k for k in snapshot["histograms"] if "solved" in k]
        hist = snapshot["histograms"][key]
        assert hist["metric"] == "lat"
        assert hist["labels"] == {"path": "solved"}
        assert hist["count"] == 1
        assert not math.isnan(hist["p95"])

    def test_observation_backward_compat_summary_fields(self):
        registry = MetricsRegistry()
        registry.observe("lat", 2.0)
        rec = registry.observation("lat")
        assert set(rec) >= {"count", "sum", "min", "max", "mean"}
        assert rec["mean"] == pytest.approx(2.0)


class TestSnapshotPinned:
    """A fixed observation sequence pins the exported shape: every
    key, its order and its value in ``snapshot()``, plus the
    Prometheus text rendered from it."""

    @staticmethod
    def _registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.incr("serve.request", 3)
        reg.set_gauge("serve.router.engines", 2)
        covered = {"path": "covered", "dataset": "a"}
        reg.observe("serve.request_seconds", 0.25, covered)
        reg.observe("serve.request_seconds", 0.5, {"path": "solved", "dataset": "a"})
        # the pre-sorted tuple fast lane lands in the same series
        reg.observe(
            "serve.request_seconds", 0.125, (("dataset", "a"), ("path", "covered"))
        )
        reg.observe("fit.seconds", 3.0)
        reg.observe("fit.seconds", 1.0)
        return reg

    COVERED_LABELS = {"dataset": "a", "path": "covered"}
    SOLVED_LABELS = {"dataset": "a", "path": "solved"}
    SNAPSHOT = {
        "counters": {"serve.request": 3},
        "gauges": {"serve.router.engines": 2},
        "observations": {
            "fit.seconds": {
                "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            },
            "serve.request_seconds{dataset=a,path=covered}": {
                "count": 2, "sum": 0.375, "min": 0.125, "max": 0.25,
                "mean": 0.1875,
                "metric": "serve.request_seconds", "labels": COVERED_LABELS,
            },
            "serve.request_seconds{dataset=a,path=solved}": {
                "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5, "mean": 0.5,
                "metric": "serve.request_seconds", "labels": SOLVED_LABELS,
            },
        },
        "histograms": {
            "fit.seconds": {
                "count": 2, "sum": 4.0,
                "buckets": [[1.048576, 1], [4.194304, 1]],
                "min": 1.0, "max": 3.0, "mean": 2.0,
                "p50": 1.048576, "p90": 3.0, "p95": 3.0, "p99": 3.0,
            },
            "serve.request_seconds{dataset=a,path=covered}": {
                "count": 2, "sum": 0.375,
                "buckets": [[0.131072, 1], [0.262144, 1]],
                "min": 0.125, "max": 0.25, "mean": 0.1875,
                "p50": 0.131072, "p90": 0.2359296,
                "p95": 0.24903679999999997, "p99": 0.25,
                "metric": "serve.request_seconds", "labels": COVERED_LABELS,
            },
            "serve.request_seconds{dataset=a,path=solved}": {
                "count": 1, "sum": 0.5,
                "buckets": [[0.524288, 1]],
                "min": 0.5, "max": 0.5, "mean": 0.5,
                "p50": 0.5, "p90": 0.5, "p95": 0.5, "p99": 0.5,
                "metric": "serve.request_seconds", "labels": SOLVED_LABELS,
            },
        },
    }
    PROMETHEUS = (
        "# TYPE serve_request_total counter\n"
        "serve_request_total 3\n"
        "# TYPE serve_router_engines gauge\n"
        "serve_router_engines 2\n"
        "# TYPE fit_seconds histogram\n"
        'fit_seconds_bucket{le="1.048576"} 1\n'
        'fit_seconds_bucket{le="4.194304"} 2\n'
        'fit_seconds_bucket{le="+Inf"} 2\n'
        "fit_seconds_sum 4\n"
        "fit_seconds_count 2\n"
        "# TYPE serve_request_seconds histogram\n"
        'serve_request_seconds_bucket{dataset="a",le="0.131072",path="covered"} 1\n'
        'serve_request_seconds_bucket{dataset="a",le="0.262144",path="covered"} 2\n'
        'serve_request_seconds_bucket{dataset="a",le="+Inf",path="covered"} 2\n'
        'serve_request_seconds_sum{dataset="a",path="covered"} 0.375\n'
        'serve_request_seconds_count{dataset="a",path="covered"} 2\n'
        'serve_request_seconds_bucket{dataset="a",le="0.524288",path="solved"} 1\n'
        'serve_request_seconds_bucket{dataset="a",le="+Inf",path="solved"} 1\n'
        'serve_request_seconds_sum{dataset="a",path="solved"} 0.5\n'
        'serve_request_seconds_count{dataset="a",path="solved"} 1\n'
    )

    def test_snapshot_keys_order_and_values(self):
        snapshot = self._registry().snapshot()
        # json.dumps without sort_keys also pins the key order
        assert json.dumps(snapshot) == json.dumps(self.SNAPSHOT)

    def test_prometheus_text(self):
        from repro.obs.prometheus import render_prometheus

        assert render_prometheus(self._registry().snapshot()) == self.PROMETHEUS

    def test_observation_and_series_read_the_histograms(self):
        reg = self._registry()
        assert reg.observation("serve.request_seconds") == {
            "count": 3, "sum": 0.875, "min": 0.125, "max": 0.5,
            "mean": 0.875 / 3,
        }
        assert reg.observation("serve.request_seconds", {"path": "covered"}) == (
            {"count": 2, "sum": 0.375, "min": 0.125, "max": 0.25, "mean": 0.1875}
        )
        assert reg.observation("never.seen") is None
        assert [
            (series["name"], series["labels"], series["summary"])
            for series in reg.series()
        ] == [
            ("fit.seconds", {}, self.SNAPSHOT["observations"]["fit.seconds"]),
            ("serve.request_seconds", self.COVERED_LABELS, {
                "count": 2, "sum": 0.375, "min": 0.125, "max": 0.25,
                "mean": 0.1875,
            }),
            ("serve.request_seconds", self.SOLVED_LABELS, {
                "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5, "mean": 0.5,
            }),
        ]
