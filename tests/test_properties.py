"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAPER_PLATFORM
from repro.perf.counters import AccessContext, Pattern, Traffic
from repro.memsys.nvram import NVRAMDevice
from repro.memsys.timing import TimingModel
from repro.nn.planner import FirstFitArena


traffic_counts = st.integers(min_value=0, max_value=10**9)


@st.composite
def traffics(draw):
    return Traffic(
        dram_reads=draw(traffic_counts),
        dram_writes=draw(traffic_counts),
        nvram_reads=draw(traffic_counts),
        nvram_writes=draw(traffic_counts),
        demand_reads=draw(traffic_counts),
        demand_writes=draw(traffic_counts),
    )


@st.composite
def contexts(draw):
    return AccessContext(
        threads=draw(st.integers(min_value=1, max_value=96)),
        pattern=draw(st.sampled_from(list(Pattern))),
        granularity=draw(st.sampled_from([64, 128, 256, 512])),
        sockets=draw(st.integers(min_value=1, max_value=2)),
        streams=draw(st.integers(min_value=1, max_value=12)),
    )


class TestTimingProperties:
    @given(traffic=traffics(), ctx=contexts())
    @settings(max_examples=200, deadline=None)
    def test_time_non_negative(self, traffic, ctx):
        timing = TimingModel(PAPER_PLATFORM)
        assert timing.elapsed(traffic, ctx) >= 0.0

    @given(traffic=traffics(), ctx=contexts())
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_traffic(self, traffic, ctx):
        """Adding traffic never reduces elapsed time."""
        timing = TimingModel(PAPER_PLATFORM)
        base = timing.elapsed(traffic, ctx)
        more = traffic + Traffic(nvram_writes=1_000_000, demand_writes=1_000_000)
        assert timing.elapsed(more, ctx) >= base

    @given(traffic=traffics(), ctx=contexts())
    @settings(max_examples=100, deadline=None)
    def test_cache_managed_nvram_time_is_additive(self, traffic, ctx):
        """Miss-handler serialization: mixed time = read time + write time."""
        managed = TimingModel(PAPER_PLATFORM, cache_managed=True)
        mixed = managed.breakdown(traffic, ctx).nvram_device
        reads_only = managed.breakdown(
            Traffic(nvram_reads=traffic.nvram_reads), ctx
        ).nvram_device
        writes_only = managed.breakdown(
            Traffic(nvram_writes=traffic.nvram_writes), ctx
        ).nvram_device
        assert mixed == pytest.approx(reads_only + writes_only, rel=1e-9, abs=1e-15)

    @given(traffic=traffics(), weight=st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_traffic_scaling_linear(self, traffic, weight):
        scaled = traffic.scaled(weight)
        assert scaled.total_accesses == traffic.total_accesses * weight
        assert scaled.demand_accesses == traffic.demand_accesses * weight


class TestNVRAMProperties:
    @given(ctx=contexts())
    @settings(max_examples=200, deadline=None)
    def test_bandwidth_positive_and_bounded(self, ctx):
        device = NVRAMDevice(PAPER_PLATFORM.socket.nvram)
        read = device.read_bandwidth(ctx)
        write = device.write_bandwidth(ctx)
        assert 0 < write <= PAPER_PLATFORM.socket.nvram.write_bandwidth
        assert 0 < read <= PAPER_PLATFORM.socket.nvram.read_bandwidth

    @given(ctx=contexts())
    @settings(max_examples=200, deadline=None)
    def test_read_at_least_write(self, ctx):
        """Optane asymmetry holds under every context."""
        device = NVRAMDevice(PAPER_PLATFORM.socket.nvram)
        assert device.read_bandwidth(ctx) >= device.write_bandwidth(ctx)

    @given(
        read_bytes=st.integers(min_value=0, max_value=10**12),
        write_bytes=st.integers(min_value=0, max_value=10**12),
        ctx=contexts(),
    )
    @settings(max_examples=100, deadline=None)
    def test_serialized_at_least_overlapped(self, read_bytes, write_bytes, ctx):
        device = NVRAMDevice(PAPER_PLATFORM.socket.nvram)
        overlapped = device.service_time(read_bytes, write_bytes, ctx)
        serialized = device.service_time(read_bytes, write_bytes, ctx, serialize=True)
        assert serialized >= overlapped - 1e-12


@st.composite
def allocation_requests(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    requests = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=50))
        length = draw(st.integers(min_value=0, max_value=20))
        size = draw(st.integers(min_value=1, max_value=4096))
        requests.append((size, start, start + length))
    return requests


class TestArenaProperties:
    @given(requests=allocation_requests())
    @settings(max_examples=200, deadline=None)
    def test_no_overlapping_live_allocations(self, requests):
        arena = FirstFitArena(alignment=64)
        placed = []
        for size, start, end in requests:
            offset = arena.allocate(size, start, end)
            placed.append((offset, size, start, end))
        for i, (off_a, size_a, start_a, end_a) in enumerate(placed):
            for off_b, size_b, start_b, end_b in placed[i + 1 :]:
                time_overlap = start_a <= end_b and start_b <= end_a
                space_overlap = off_a < off_b + size_b and off_b < off_a + size_a
                assert not (time_overlap and space_overlap)

    @given(requests=allocation_requests())
    @settings(max_examples=100, deadline=None)
    def test_high_water_bounded_by_concurrent_demand(self, requests):
        """First-fit never exceeds the sum of all (aligned) requests."""
        arena = FirstFitArena(alignment=64)
        for size, start, end in requests:
            arena.allocate(size, start, end)
        aligned_total = sum(-(-size // 64) * 64 for size, _, _ in requests)
        assert arena.high_water <= aligned_total
