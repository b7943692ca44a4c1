"""Tests for the DRAM and NVRAM device bandwidth models.

These tests pin the calibration the reproduction depends on: the Figure
2 bandwidth curves (thread scaling, write peak at 4 threads, random 64 B
write amplification) and the read/write asymmetry.
"""

import pytest

from repro.config import DRAMConfig, NVRAMConfig
from repro.perf.counters import AccessContext, Pattern
from repro.memsys.dram import DRAMDevice
from repro.memsys.nvram import NVRAMDevice


@pytest.fixture
def nvram():
    return NVRAMDevice(NVRAMConfig())


@pytest.fixture
def dram():
    return DRAMDevice(DRAMConfig())


class TestNVRAMRead:
    def test_sequential_full_bandwidth(self, nvram):
        ctx = AccessContext(threads=8, pattern=Pattern.SEQUENTIAL)
        assert nvram.read_bandwidth(ctx) == pytest.approx(5.3e9)

    def test_sequential_granularity_indifferent(self, nvram):
        # Section III-B: "sequential iteration is largely indifferent to
        # access granularity".
        for granularity in (64, 128, 256, 512):
            ctx = AccessContext(pattern=Pattern.SEQUENTIAL, granularity=granularity)
            assert nvram.read_bandwidth(ctx) == pytest.approx(5.3e9)

    def test_random_64b_quarter_bandwidth(self, nvram):
        # 64 B random reads fetch 256 B of media: 4x read amplification.
        ctx = AccessContext(pattern=Pattern.RANDOM, granularity=64)
        assert nvram.read_bandwidth(ctx) == pytest.approx(5.3e9 / 4)

    def test_random_at_media_granularity_full_bandwidth(self, nvram):
        ctx = AccessContext(pattern=Pattern.RANDOM, granularity=256)
        assert nvram.read_bandwidth(ctx) == pytest.approx(5.3e9)

    def test_random_above_media_granularity_not_amplified(self, nvram):
        ctx = AccessContext(pattern=Pattern.RANDOM, granularity=512)
        assert nvram.read_bandwidth(ctx) == pytest.approx(5.3e9)


class TestNVRAMWrite:
    def test_peak_at_saturation_threads(self, nvram):
        ctx = AccessContext(threads=4)
        assert nvram.write_bandwidth(ctx) == pytest.approx(1.9e9)

    def test_oversubscription_degrades(self, nvram):
        # Figure 2b: bandwidth at 24 threads is below the 4-thread peak.
        at_4 = nvram.write_bandwidth(AccessContext(threads=4))
        at_24 = nvram.write_bandwidth(AccessContext(threads=24))
        assert at_24 < at_4
        assert at_24 >= 0.85 * at_4  # bounded by the floor

    def test_oversubscription_floor(self, nvram):
        at_1000 = nvram.write_bandwidth(AccessContext(threads=1000))
        assert at_1000 == pytest.approx(1.9e9 * 0.85)

    def test_two_sockets_double_the_saturation_point(self, nvram):
        one = nvram.write_bandwidth(AccessContext(threads=8, sockets=1))
        two = nvram.write_bandwidth(AccessContext(threads=8, sockets=2))
        assert two > one

    def test_random_64b_write_amplification(self, nvram):
        # Section III-C: limited buffering prevents merging random 64 B
        # writes, causing ~4x write amplification.
        seq = nvram.write_bandwidth(AccessContext(threads=4))
        rnd = nvram.write_bandwidth(
            AccessContext(threads=4, pattern=Pattern.RANDOM, granularity=64)
        )
        assert rnd == pytest.approx(seq / 4)

    def test_random_256b_matches_sequential(self, nvram):
        # Figure 2b: write bandwidth "is roughly the same for sequential
        # and random access exceeding 256B".
        seq = nvram.write_bandwidth(AccessContext(threads=4))
        rnd = nvram.write_bandwidth(
            AccessContext(threads=4, pattern=Pattern.RANDOM, granularity=256)
        )
        assert rnd == pytest.approx(seq)


class TestNVRAMServiceTime:
    def test_pure_read(self, nvram):
        ctx = AccessContext()
        assert nvram.service_time(5.3e9, 0, ctx) == pytest.approx(1.0)

    def test_pure_write(self, nvram):
        ctx = AccessContext()
        assert nvram.service_time(0, 1.9e9, ctx) == pytest.approx(1.0)

    def test_mixed_overlaps_with_interference(self, nvram):
        ctx = AccessContext()
        read_only = nvram.service_time(5.3e9, 0, ctx)
        mixed = nvram.service_time(5.3e9, 1.9e9, ctx)
        serial = read_only + nvram.service_time(0, 1.9e9, ctx)
        assert mixed > max(read_only, 1.0)
        assert mixed < serial

    def test_rejects_negative(self, nvram):
        with pytest.raises(ValueError):
            nvram.service_time(-1, 0, AccessContext())

    def test_zero_is_zero(self, nvram):
        assert nvram.service_time(0, 0, AccessContext()) == 0.0


class TestAsymmetry:
    def test_read_write_ratio(self, nvram):
        ctx = AccessContext(threads=4)
        ratio = nvram.read_bandwidth(ctx) / nvram.write_bandwidth(ctx)
        assert 2.0 < ratio < 4.0


class TestDRAM:
    def test_sustained_below_bus(self, dram):
        assert dram.bandwidth(AccessContext()) < dram.config.channel_bus_bandwidth

    def test_random_penalty(self, dram):
        seq = dram.bandwidth(AccessContext())
        rnd = dram.bandwidth(AccessContext(pattern=Pattern.RANDOM))
        assert rnd == pytest.approx(seq * dram.config.random_penalty)

    def test_much_faster_than_nvram(self, dram, nvram):
        ctx = AccessContext(threads=4)
        assert dram.bandwidth(ctx) > 3 * nvram.read_bandwidth(ctx)

    def test_service_time(self, dram):
        ctx = AccessContext()
        assert dram.service_time(dram.bandwidth(ctx), ctx) == pytest.approx(1.0)

    def test_service_time_rejects_negative(self, dram):
        with pytest.raises(ValueError):
            dram.service_time(-5, AccessContext())
