"""Cross-cutting property-based tests on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAPER_PLATFORM
from repro.perf.counters import AccessContext, Pattern, Traffic
from repro.memsys.nvram import NVRAMDevice
from repro.memsys.timing import TimingModel
from repro.nn.planner import FirstFitArena, _align
from repro.units import TB


traffic_counts = st.integers(min_value=0, max_value=10**9)  # repro-lint: disable=UNIT001 (line counts, not bytes)


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
        scaled = Traffic()
        scaled.add(traffic, weight)
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
        read_bytes=st.integers(min_value=0, max_value=TB),
        write_bytes=st.integers(min_value=0, max_value=TB),
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
    """Interval requests for a 64-byte-aligned arena.

    Sizes are arbitrary or whole alignment units (so extents abut and
    gaps fit exactly), and a request may reuse the previous request's
    size just after its interval ends, landing at the same offset: a
    later request that overlaps both then meets blockers tied on offset.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    requests = []
    for _ in range(n):
        if requests and draw(st.booleans()):
            size, _, previous_end = requests[-1]
            start = previous_end + 1
        else:
            size = draw(
                st.one_of(
                    st.integers(min_value=1, max_value=4096),
                    st.integers(min_value=1, max_value=8).map(lambda units: units * 64),
                )
            )
            start = draw(st.integers(min_value=0, max_value=50))
        length = draw(st.integers(min_value=0, max_value=20))
        requests.append((size, start, start + length))
    return requests


class LoopFirstFitArena:
    """Reference first fit: scan every placed extent in Python per request."""

    def __init__(self, alignment):
        self.alignment = alignment
        self._placed = []
        self.high_water = 0

    def allocate(self, size, start, end):
        size = _align(size, self.alignment)
        blockers = sorted(
            (off, sz)
            for off, sz, other_start, other_end in self._placed
            if other_start <= end and start <= other_end
        )
        candidate = 0
        for off, sz in blockers:
            if candidate + size <= off:
                break
            candidate = max(candidate, _align(off + sz, self.alignment))
        self._placed.append((candidate, size, start, end))
        self.high_water = max(self.high_water, candidate + size)
        return candidate


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
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_reference(self, requests):
        arena = FirstFitArena(alignment=64)
        reference = LoopFirstFitArena(alignment=64)
        for size, start, end in requests:
            offset = arena.allocate(size, start, end)
            assert type(offset) is int
            assert offset == reference.allocate(size, start, end)
            assert arena.high_water == reference.high_water

    @given(requests=allocation_requests())
    @settings(max_examples=100, deadline=None)
    def test_high_water_bounded_by_concurrent_demand(self, requests):
        """First-fit never exceeds the sum of all (aligned) requests."""
        arena = FirstFitArena(alignment=64)
        for size, start, end in requests:
            arena.allocate(size, start, end)
        aligned_total = sum(-(-size // 64) * 64 for size, _, _ in requests)
        assert arena.high_water <= aligned_total
