"""Design-space exploration: would a different DRAM cache have helped?

Sweeps the cache organization — direct-mapped vs set-associative,
Dirty Data Optimization on/off, insert-on-write-miss vs write-around —
against two adversarial microbenchmark mixes, printing the access
amplification and effective bandwidth of each design.  This extends the
paper's discussion (Section VII) with quantitative what-ifs.

Run:  python examples/cache_design_space.py
"""

from repro.cache import DirectMappedCache, SetAssociativeCache
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import CachedBackend
from repro.perf.counters import StoreType
from repro.perf.report import render_table
from repro.units import CACHE_LINE


def designs(capacity):
    yield "direct-mapped (Cascade Lake)", DirectMappedCache(capacity)
    yield "direct-mapped, no DDO", DirectMappedCache(capacity, ddo_enabled=False)
    yield "direct-mapped, write-around", DirectMappedCache(
        capacity, insert_on_write_miss=False
    )
    yield "2-way LRU", SetAssociativeCache(capacity, ways=2)
    yield "8-way LRU", SetAssociativeCache(capacity, ways=8)


WORKLOADS = {
    "stream read (100% miss)": (Kernel.READ_ONLY, StoreType.STANDARD, Kernel.READ_ONLY),
    "stream write NT (100% dirty miss)": (
        Kernel.WRITE_ONLY,
        StoreType.NONTEMPORAL,
        Kernel.WRITE_ONLY,
    ),
    "read-modify-write": (
        Kernel.READ_MODIFY_WRITE,
        StoreType.STANDARD,
        Kernel.WRITE_ONLY,
    ),
}


def main() -> None:
    platform = default_platform()
    scale = platform.scale_factor
    capacity = platform.socket.dram_capacity
    num_lines = int(capacity * 2.2) // CACHE_LINE

    for workload, (kernel, store, primer) in WORKLOADS.items():
        rows = []
        for name, cache in designs(capacity):
            backend = CachedBackend(platform, cache)
            run_kernel(
                backend, KernelSpec(primer, threads=24), num_lines
            )  # prime the cache state
            result = run_kernel(
                backend,
                KernelSpec(kernel, store_type=store, threads=24),
                num_lines,
            )
            rows.append(
                [
                    name,
                    f"{result.traffic.amplification:.2f}x",
                    f"{result.effective_gb_per_s * scale:.1f}",
                    f"{result.tags.hit_rate:.2f}",
                ]
            )
        print(
            render_table(
                ["design", "amplification", "effective GB/s", "hit rate"],
                rows,
                title=f"Workload: {workload} (array 2.2x cache, hw-equivalent)",
            )
        )
        print()


if __name__ == "__main__":
    main()
