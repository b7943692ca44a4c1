"""Microbenchmarks of the simulator's core primitives.

Not paper figures — these track the performance of the building blocks
(vectorized cache engine, LFSR generation, kernel runner) so regressions
in simulation speed are caught alongside the reproduction results.
"""

import numpy as np
import pytest

from repro.cache import DirectMappedCache, SetAssociativeCache
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, lfsr_sequence, run_kernel
from repro.kernels.lfsr import max_length_lfsr_states
from repro.memsys import AddressMap, CachedBackend, FlatBackend

N_ACCESSES = 1 << 20  # repro-lint: disable=UNIT001 (an access count, not bytes)


@pytest.fixture(scope="module")
def platform():
    return default_platform()


def test_direct_mapped_read_throughput(benchmark, platform):
    cache = DirectMappedCache(platform.socket.dram_capacity)
    rng = np.random.default_rng(1)
    lines = rng.integers(0, cache.num_sets * 2, size=N_ACCESSES)

    def run():
        cache.llc_read(lines)

    benchmark(run)


def test_direct_mapped_write_throughput(benchmark, platform):
    cache = DirectMappedCache(platform.socket.dram_capacity)
    rng = np.random.default_rng(2)
    lines = rng.integers(0, cache.num_sets * 2, size=N_ACCESSES)

    def run():
        cache.llc_write(lines)

    benchmark(run)


def test_set_associative_read_throughput(benchmark, platform):
    cache = SetAssociativeCache(platform.socket.dram_capacity, ways=8)
    rng = np.random.default_rng(3)
    lines = rng.integers(0, cache.num_sets * 16, size=N_ACCESSES // 4)

    def run():
        cache.llc_read(lines)

    benchmark(run)


def test_lfsr_orbit_generation(benchmark):
    max_length_lfsr_states.cache_clear()

    def run():
        max_length_lfsr_states.cache_clear()
        return max_length_lfsr_states(21)

    states = benchmark(run)
    assert states.size == (1 << 21) - 1


def test_lfsr_sequence_covering(benchmark):
    seq = benchmark(lfsr_sequence, 1 << 18)
    assert seq.size == 1 << 18


def test_microbenchmark_runner_throughput(benchmark, platform):
    amap = AddressMap.nvram_only(platform.socket.nvram_capacity // 64)

    def run():
        backend = FlatBackend(platform, amap)
        return run_kernel(
            backend, KernelSpec(Kernel.READ_ONLY, threads=8), N_ACCESSES // 4
        )

    result = benchmark(run)
    assert result.traffic.demand_reads == N_ACCESSES // 4


def test_cached_backend_full_path(benchmark, platform):
    def run():
        cache = DirectMappedCache(platform.socket.dram_capacity)
        backend = CachedBackend(platform, cache)
        return run_kernel(
            backend, KernelSpec(Kernel.READ_ONLY, threads=24), N_ACCESSES // 4
        )

    result = benchmark(run)
    assert result.traffic.demand_reads == N_ACCESSES // 4
