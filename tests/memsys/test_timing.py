"""Tests for the epoch timing engine."""

import pytest

from repro.config import PAPER_PLATFORM
from repro.perf.counters import AccessContext, Traffic
from repro.memsys.timing import TimingModel
from repro.units import GB, GiB


@pytest.fixture
def timing():
    return TimingModel(PAPER_PLATFORM)


def lines(nbytes):
    return nbytes // 64


class TestDemandLimits:
    def test_single_thread_read_limited(self, timing):
        # One thread reading one thread-second of DRAM: demand-limited.
        per_thread = PAPER_PLATFORM.socket.cpu.per_thread_read_bandwidth
        nbytes = int(per_thread) // 64 * 64
        traffic = Traffic(dram_reads=lines(nbytes), demand_reads=lines(nbytes))
        breakdown = timing.breakdown(traffic, AccessContext(threads=1))
        assert breakdown.bottleneck == "demand_read"
        assert breakdown.elapsed == pytest.approx(1.0, rel=0.01)

    def test_thread_scaling_saturates_nvram_reads(self, timing):
        # Figure 2a: sequential NVRAM read saturates around 8 threads.
        nbytes = 32 * GiB
        traffic = Traffic(nvram_reads=lines(nbytes), demand_reads=lines(nbytes))
        t1 = timing.elapsed(traffic, AccessContext(threads=1))
        t8 = timing.elapsed(traffic, AccessContext(threads=8))
        t24 = timing.elapsed(traffic, AccessContext(threads=24))
        assert t1 > 4 * t8
        assert t24 == pytest.approx(t8, rel=0.01)

    def test_threads_clamped_to_cores(self, timing):
        traffic = Traffic(dram_reads=lines(GiB), demand_reads=lines(GiB))
        at_cores = timing.elapsed(traffic, AccessContext(threads=24))
        beyond = timing.elapsed(traffic, AccessContext(threads=1000))
        assert beyond == pytest.approx(at_cores)


class TestDeviceLimits:
    def test_nvram_read_bandwidth_ceiling(self, timing):
        nbytes = 318 * GB // 10  # 31.8 GB
        traffic = Traffic(nvram_reads=lines(nbytes), demand_reads=lines(nbytes))
        elapsed = timing.elapsed(traffic, AccessContext(threads=24))
        assert elapsed == pytest.approx(1.0, rel=0.01)

    def test_nvram_write_slower_than_read(self, timing):
        ctx = AccessContext(threads=24)
        n = lines(GiB)
        read_time = timing.elapsed(Traffic(nvram_reads=n, demand_reads=n), ctx)
        write_time = timing.elapsed(Traffic(nvram_writes=n, demand_writes=n), ctx)
        assert write_time > 2 * read_time

    def test_two_sockets_double_throughput(self, timing):
        n = lines(32 * GiB)
        traffic = Traffic(nvram_reads=n, demand_reads=n)
        one = timing.elapsed(traffic, AccessContext(threads=48, sockets=1))
        two = timing.elapsed(traffic, AccessContext(threads=48, sockets=2))
        assert two == pytest.approx(one / 2, rel=0.02)

    def test_zero_traffic_zero_time(self, timing):
        assert timing.elapsed(Traffic(), AccessContext()) == 0.0


class TestEfficiencyKnob:
    def test_miss_handler_derates_nvram_only(self):
        derated = TimingModel(PAPER_PLATFORM, nvram_efficiency=0.5)
        full = TimingModel(PAPER_PLATFORM)
        ctx = AccessContext(threads=24)
        n = lines(GiB)
        nvram_traffic = Traffic(nvram_reads=n, demand_reads=n)
        assert derated.elapsed(nvram_traffic, ctx) == pytest.approx(
            2 * full.elapsed(nvram_traffic, ctx)
        )
        dram_traffic = Traffic(dram_reads=20 * n, demand_reads=20 * n)
        assert derated.elapsed(dram_traffic, ctx) == pytest.approx(
            full.elapsed(dram_traffic, ctx)
        )

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            TimingModel(PAPER_PLATFORM, nvram_efficiency=0.0)
        with pytest.raises(ValueError):
            TimingModel(PAPER_PLATFORM, nvram_efficiency=1.5)

    def test_thread_derate_disabled_for_cache_managed(self):
        managed = TimingModel(PAPER_PLATFORM, cache_managed=True)
        unmanaged = TimingModel(PAPER_PLATFORM, cache_managed=False)
        ctx = AccessContext(threads=24)
        n = lines(GiB)
        # Pure write stream: the miss handler is immune to CPU-thread
        # oversubscription, so the cache-managed path is faster.
        traffic = Traffic(nvram_writes=n, demand_writes=n)
        assert managed.elapsed(traffic, ctx) < unmanaged.elapsed(traffic, ctx)

    def test_cache_managed_serializes_mixed_nvram(self):
        managed = TimingModel(PAPER_PLATFORM, cache_managed=True)
        ctx = AccessContext(threads=4)
        n = lines(GiB)
        mixed = Traffic(nvram_reads=n, nvram_writes=n, demand_reads=n)
        read_only = Traffic(nvram_reads=n, demand_reads=n)
        write_only = Traffic(nvram_writes=n, demand_writes=n)
        # Fill read and write-back serialize per miss: times add exactly.
        assert managed.breakdown(mixed, ctx).nvram_device == pytest.approx(
            managed.breakdown(read_only, ctx).nvram_device
            + managed.breakdown(write_only, ctx).nvram_device
        )


class TestBreakdown:
    def test_elapsed_is_max_of_constraints(self, timing):
        n = lines(GiB)
        traffic = Traffic(
            dram_reads=n, nvram_reads=n, nvram_writes=n, demand_reads=n
        )
        b = timing.breakdown(traffic, AccessContext(threads=4))
        assert b.elapsed == max(
            b.demand_read, b.demand_write, b.channel_bus, b.dram_device, b.nvram_device
        )

    def test_bottleneck_names_the_max(self, timing):
        n = lines(GiB)
        b = timing.breakdown(
            Traffic(nvram_writes=n, demand_writes=n), AccessContext(threads=24)
        )
        assert b.bottleneck == "nvram_device"
