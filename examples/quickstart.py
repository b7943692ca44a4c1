"""Quickstart: measure DRAM-cache access amplification in five minutes.

Builds the paper's platform (scaled 1/1024), runs the same read-only
microbenchmark against NVRAM twice — once in 1LM (app-direct, no cache)
and once in 2LM (hardware DRAM cache) — and shows why a 100 %-miss
workload moves 3x the data and loses a third of its bandwidth.

Run:  python examples/quickstart.py
"""

from repro.cache import DirectMappedCache
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import AddressMap, CachedBackend, FlatBackend
from repro.perf.report import render_table
from repro.units import CACHE_LINE, format_bytes


def main() -> None:
    platform = default_platform()  # 1/1024 of the paper's machine
    scale = platform.scale_factor
    print(
        f"Platform: {platform.sockets} sockets, "
        f"{format_bytes(platform.socket.dram_capacity)} DRAM + "
        f"{format_bytes(platform.socket.nvram_capacity)} NVRAM per socket "
        f"(scaled 1/{scale:.0f})"
    )

    # An array 2.2x the DRAM cache: every access misses in 2LM.
    num_lines = int(platform.socket.dram_capacity * 2.2) // CACHE_LINE
    spec = KernelSpec(Kernel.READ_ONLY, threads=24)

    # --- 1LM: app-direct, reads go straight to NVRAM ----------------------
    flat = FlatBackend(
        platform, AddressMap.nvram_only(platform.socket.nvram_capacity // CACHE_LINE)
    )
    direct = run_kernel(flat, spec, num_lines)

    # --- 2LM: memory mode, the DRAM cache intercepts every request --------
    cache = DirectMappedCache(platform.socket.dram_capacity)
    cached_backend = CachedBackend(platform, cache)
    run_kernel(cached_backend, spec, num_lines)  # warm-up pass
    cached = run_kernel(cached_backend, spec, num_lines)

    rows = [
        [
            "1LM (app direct)",
            f"{direct.traffic.amplification:.2f}x",
            f"{direct.effective_gb_per_s * scale:.1f}",
            f"{direct.traffic.total_bytes * scale / 1e9:.1f}",
        ],
        [
            "2LM (DRAM cache)",
            f"{cached.traffic.amplification:.2f}x",
            f"{cached.effective_gb_per_s * scale:.1f}",
            f"{cached.traffic.total_bytes * scale / 1e9:.1f}",
        ],
    ]
    print()
    print(
        render_table(
            ["mode", "amplification", "effective GB/s", "data moved GB"],
            rows,
            title="Read-only scan of an array 2.2x the DRAM cache (hw-equivalent)",
        )
    )
    print(
        f"\n2LM hit rate: {cached.tags.hit_rate:.1%} "
        f"(clean misses {cached.tags.clean_misses}, dirty {cached.tags.dirty_misses})"
    )
    print(
        "Every miss costs a tag-check DRAM read, an NVRAM fetch, and a "
        "DRAM fill — Table I's 3x amplification, live."
    )


if __name__ == "__main__":
    main()
