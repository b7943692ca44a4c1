"""Tests for counter validation against expected data movement."""

import pytest

from repro.cache import DirectMappedCache
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import CachedBackend, StoreType
from repro.perf.counters import TagStats, Traffic
from repro.memsys.validation import (
    expected_from_tags,
    validate_traffic,
    validate_wall_clock,
)
from repro.units import gb_per_s


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


class TestExpectedFromTags:
    def test_pure_read_hits(self):
        expected = expected_from_tags(TagStats(hits=10), 10, 0)
        assert expected.dram_reads == 10
        assert expected.total_accesses == 10

    def test_read_miss_mix(self):
        tags = TagStats(hits=2, clean_misses=3, dirty_misses=5)
        expected = expected_from_tags(tags, 10, 0)
        assert expected.dram_reads == 10  # every read tag-checks
        assert expected.nvram_reads == 8
        assert expected.nvram_writes == 5
        assert expected.dram_writes == 8

    def test_write_with_ddo(self):
        tags = TagStats(hits=1, ddo_writes=4)
        expected = expected_from_tags(tags, 0, 5)
        assert expected.dram_reads == 1
        assert expected.dram_writes == 5  # 1 hit update + 4 DDO

    def test_rejects_mixed_streams(self):
        with pytest.raises(ValueError):
            expected_from_tags(TagStats(), 1, 1)


class TestEndToEndValidation:
    @pytest.mark.parametrize(
        "kernel, store",
        [
            (Kernel.READ_ONLY, StoreType.STANDARD),
            (Kernel.WRITE_ONLY, StoreType.NONTEMPORAL),
        ],
    )
    def test_microbenchmark_counters_validate_exactly(self, platform, kernel, store):
        """The simulated IMC counters must satisfy Table I identically —
        the paper's own methodology check, applied to the simulator."""
        cache = DirectMappedCache(platform.socket.dram_capacity)
        backend = CachedBackend(platform, cache)
        num_lines = int(platform.socket.dram_capacity * 2.2) // 64
        spec = KernelSpec(kernel, store_type=store, threads=24)
        run_kernel(backend, spec, num_lines)
        result = run_kernel(backend, spec, num_lines)
        report = validate_traffic(result.traffic, result.tags)
        assert report.ok, report.mismatches

    def test_detects_corrupted_counters(self):
        measured = Traffic(dram_reads=9, demand_reads=10)  # one read lost
        report = validate_traffic(measured, TagStats(hits=10))
        assert not report.ok
        assert any("dram_reads" in m for m in report.mismatches)


class TestWallClock:
    def test_consistent_run_passes(self, platform):
        traffic = Traffic(dram_reads=1000, demand_reads=1000)
        generous_time = traffic.total_bytes / 1e6
        assert validate_wall_clock(traffic, generous_time, gb_per_s(1.0)) is None

    def test_impossible_bandwidth_flagged(self):
        traffic = Traffic(dram_reads=10**9, demand_reads=10**9)  # repro-lint: disable=UNIT001 (line counts, not bytes)
        error = validate_wall_clock(traffic, 1e-6, gb_per_s(1.0))
        assert error is not None
        assert "exceeds" in error

    def test_zero_time_zero_traffic_ok(self):
        assert validate_wall_clock(Traffic(), 0.0, gb_per_s(1.0)) is None

    def test_zero_time_with_traffic_flagged(self):
        assert validate_wall_clock(Traffic(dram_reads=1), 0.0, gb_per_s(1.0)) is not None
