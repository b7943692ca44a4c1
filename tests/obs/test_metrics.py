"""Tests for the metrics registry, instruments, and exposition."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError):
            registry.gauge("m")


class TestGauge:
    def test_set_and_move(self):
        gauge = MetricsRegistry().gauge("hit_rate")
        gauge.set(0.75)
        assert gauge.value == 0.75
        gauge.inc(0.05)
        gauge.dec(0.10)
        assert gauge.value == pytest.approx(0.70)


class TestHistogramBucketing:
    def test_le_semantics_boundary_inclusive(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 5.0, 99.0):
            hist.observe(value)
        snap = hist.snapshot()
        cumulative = dict(snap.buckets)
        assert cumulative[1.0] == 2  # 0.5 and the boundary 1.0
        assert cumulative[2.0] == 4
        assert cumulative[5.0] == 5
        assert snap.count == 6  # 99.0 only in the implicit +Inf bucket
        assert snap.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 99.0)

    def test_mean(self):
        hist = Histogram("h", bounds=(10.0,))
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.snapshot().mean == 3.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_dram_reads_total").inc(100)
        registry.gauge("repro_tag_hit_rate").set(0.5)
        registry.histogram("repro_epoch_amplification", (1.0, 3.0)).observe(2.0)
        return registry

    def test_text_format(self):
        text = self._registry().to_prometheus()
        assert "# TYPE repro_dram_reads_total counter" in text
        assert "repro_dram_reads_total 100" in text
        assert "# TYPE repro_tag_hit_rate gauge" in text
        assert "repro_tag_hit_rate 0.5" in text
        assert 'repro_epoch_amplification_bucket{le="3"} 1' in text
        assert 'repro_epoch_amplification_bucket{le="+Inf"} 1' in text
        assert "repro_epoch_amplification_sum 2" in text
        assert "repro_epoch_amplification_count 1" in text
        assert text.endswith("\n")

    def test_to_jsonable_hook(self):
        payload = self._registry().to_jsonable()
        assert payload["counters"]["repro_dram_reads_total"] == 100
        assert payload["histograms"][0]["name"] == "repro_epoch_amplification"
