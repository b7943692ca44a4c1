"""Tests for counter sampling and derived trace series."""

import pytest

from repro.perf.counters import TagStats, Traffic, UncoreCounters
from repro.perf.sampler import CounterSampler
from repro.perf.trace import Trace, TracePoint


def make_counters():
    return UncoreCounters()


class TestSampler:
    def test_deltas_between_samples(self):
        counters = make_counters()
        sampler = CounterSampler(counters)
        counters.record_traffic(Traffic(dram_reads=10))
        counters.advance(1.0)
        point = sampler.sample("phase1")
        assert point.traffic.dram_reads == 10
        assert point.duration == pytest.approx(1.0)
        counters.record_traffic(Traffic(dram_reads=5))
        counters.advance(0.5)
        point = sampler.sample("phase2")
        assert point.traffic.dram_reads == 5
        assert point.label == "phase2"

    def test_discard_resets_baseline(self):
        counters = make_counters()
        sampler = CounterSampler(counters)
        counters.record_traffic(Traffic(dram_reads=100))
        counters.advance(1.0)
        sampler.discard()
        counters.advance(1.0)
        point = sampler.sample()
        assert point.traffic.dram_reads == 0
        assert len(sampler.trace()) == 1

    def test_trace_accumulates(self):
        counters = make_counters()
        sampler = CounterSampler(counters)
        for _ in range(5):
            counters.advance(0.1)
            sampler.sample()
        assert len(sampler.trace()) == 5


def make_point(start, end, dram_reads=0, nvram_writes=0, hits=0, dirty=0, inst=0):
    return TracePoint(
        start=start,
        end=end,
        traffic=Traffic(dram_reads=dram_reads, nvram_writes=nvram_writes),
        tags=TagStats(hits=hits, dirty_misses=dirty),
        instructions=inst,
    )


class TestTrace:
    def test_bandwidth_series(self):
        trace = Trace([make_point(0, 1, dram_reads=100), make_point(1, 2, dram_reads=50)])
        series = trace.bandwidth_series("dram_reads")
        assert series[0] == pytest.approx(100 * 64)
        assert series[1] == pytest.approx(50 * 64)

    def test_bandwidth_rejects_unknown_field(self):
        point = make_point(0, 1)
        with pytest.raises(ValueError):
            point.bandwidth("demand_reads")

    def test_zero_duration_bandwidth_is_zero(self):
        assert make_point(1, 1, dram_reads=5).bandwidth("dram_reads") == 0.0

    def test_tag_rate_series(self):
        trace = Trace([make_point(0, 2, hits=10, dirty=4)])
        assert trace.tag_rate_series("hits")[0] == pytest.approx(5.0)
        assert trace.tag_rate_series("dirty_misses")[0] == pytest.approx(2.0)

    def test_tag_rate_rejects_unknown(self):
        with pytest.raises(ValueError):
            Trace([]).tag_rate_series("bogus")

    def test_mips(self):
        trace = Trace([make_point(0, 2, inst=4_000_000)])
        assert trace.mips_series()[0] == pytest.approx(2.0)

    def test_duration(self):
        trace = Trace([make_point(1, 2), make_point(2, 5)])
        assert trace.duration == pytest.approx(4.0)
        assert Trace([]).duration == 0.0

    def test_indexing(self):
        points = [make_point(0, 1), make_point(1, 2)]
        trace = Trace(points)
        assert trace[0] is points[0]
        assert list(trace) == points
