"""Tests for the microbenchmark runner: LLC request translation and results."""

import pytest

from repro.cache import DirectMappedCache
from repro.config import default_platform
from repro.memsys import AddressMap, CachedBackend, FlatBackend, StoreType
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.units import GB, MiB


@pytest.fixture
def platform():
    return default_platform()


def cached_backend(platform, capacity=None):
    cache = DirectMappedCache(capacity or platform.socket.dram_capacity)
    return CachedBackend(platform, cache)


def flat_backend(platform):
    amap = AddressMap.nvram_only(platform.socket.nvram_capacity // 64)
    return FlatBackend(platform, amap)


class TestRequestTranslation:
    def test_read_only_generates_only_llc_reads(self, platform):
        be = flat_backend(platform)
        r = run_kernel(be, KernelSpec(Kernel.READ_ONLY), 1000)
        assert r.traffic.demand_reads == 1000
        assert r.traffic.demand_writes == 0

    def test_nt_write_only_no_rfo(self, platform):
        be = flat_backend(platform)
        spec = KernelSpec(Kernel.WRITE_ONLY, store_type=StoreType.NONTEMPORAL)
        r = run_kernel(be, spec, 1000)
        assert r.traffic.demand_reads == 0
        assert r.traffic.demand_writes == 1000

    def test_standard_write_only_generates_rfo(self, platform):
        # Section IV-A: standard stores may require a Read-For-Ownership.
        be = flat_backend(platform)
        spec = KernelSpec(Kernel.WRITE_ONLY, store_type=StoreType.STANDARD)
        r = run_kernel(be, spec, 1000)
        assert r.traffic.demand_reads == 1000
        assert r.traffic.demand_writes == 1000

    def test_rmw_standard_reads_and_writes(self, platform):
        be = flat_backend(platform)
        spec = KernelSpec(Kernel.READ_MODIFY_WRITE, store_type=StoreType.STANDARD)
        r = run_kernel(be, spec, 1000)
        assert r.traffic.demand_reads == 1000  # load doubles as RFO
        assert r.traffic.demand_writes == 1000

    def test_iterations_multiply_traffic(self, platform):
        be = flat_backend(platform)
        r = run_kernel(be, KernelSpec(Kernel.READ_ONLY), 500, iterations=3)
        assert r.traffic.demand_reads == 1500
        assert r.demand_bytes == 3 * 500 * 64


class TestDDOViaDelayedWriteback:
    def test_rmw_standard_stores_trigger_ddo(self, platform):
        # Figure 4c: the load's tag check arms the DDO; the delayed LLC
        # write-back skips its own tag check.
        be = cached_backend(platform, capacity=MiB)
        spec = KernelSpec(
            Kernel.READ_MODIFY_WRITE, store_type=StoreType.STANDARD, threads=4
        )
        num_lines = MiB // 64 // 2  # fits in the cache: stays resident
        r = run_kernel(be, spec, num_lines)
        assert r.tags.ddo_writes == num_lines

    def test_nt_rmw_does_not_ddo_differently(self, platform):
        # NT stores arrive immediately; line is resident from the read,
        # so DDO still applies under our model.
        be = cached_backend(platform, capacity=MiB)
        spec = KernelSpec(
            Kernel.READ_MODIFY_WRITE, store_type=StoreType.NONTEMPORAL, threads=4
        )
        num_lines = MiB // 64 // 2
        r = run_kernel(be, spec, num_lines)
        assert r.tags.ddo_writes == num_lines

    def test_writeback_delay_respects_llc_capacity(self, platform):
        # With standard stores, write-backs lag reads by about one LLC.
        be = flat_backend(platform)
        spec = KernelSpec(Kernel.WRITE_ONLY, store_type=StoreType.STANDARD)
        r = run_kernel(be, spec, 2000, batch_lines=100)
        # All writes eventually drain.
        assert r.traffic.demand_writes == 2000


class TestResults:
    def test_effective_bandwidth_positive(self, platform):
        be = flat_backend(platform)
        r = run_kernel(be, KernelSpec(Kernel.READ_ONLY, threads=8), 100_000)
        assert r.effective_bandwidth > 0
        assert r.effective_gb_per_s == pytest.approx(r.effective_bandwidth / GB)

    def test_bandwidth_by_field(self, platform):
        be = flat_backend(platform)
        r = run_kernel(be, KernelSpec(Kernel.READ_ONLY, threads=8), 100_000)
        assert r.bandwidth_gb_per_s("nvram_reads") == pytest.approx(
            r.effective_gb_per_s
        )
        assert r.bandwidth_gb_per_s("dram_reads") == 0.0

    def test_instructions_retired(self, platform):
        be = flat_backend(platform)
        run_kernel(be, KernelSpec(Kernel.READ_ONLY), 1000)
        assert be.counters.instructions > 0

    def test_rejects_empty_buffer(self, platform):
        with pytest.raises(ValueError):
            run_kernel(flat_backend(platform), KernelSpec(Kernel.READ_ONLY), 0)

    def test_rejects_zero_iterations(self, platform):
        with pytest.raises(ValueError):
            run_kernel(
                flat_backend(platform), KernelSpec(Kernel.READ_ONLY), 10, iterations=0
            )


class TestSpecValidation:
    def test_rejects_bad_threads(self):
        with pytest.raises(ValueError):
            KernelSpec(Kernel.READ_ONLY, threads=0)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            KernelSpec(Kernel.READ_ONLY, granularity=100)

    def test_describe_mentions_store_type_only_for_writes(self):
        read = KernelSpec(Kernel.READ_ONLY)
        write = KernelSpec(Kernel.WRITE_ONLY, store_type=StoreType.NONTEMPORAL)
        assert "nontemporal" not in read.describe()
        assert "nontemporal" in write.describe()
