"""Figure 4: 2LM bandwidth on arrays exceeding the DRAM cache.

(a) read-only under 100 % clean misses, (b) write-only (NT stores)
under 100 % dirty misses, (c) read-modify-write with standard stores —
a dirty read miss followed by a DDO write-back.  For each, per-device
bandwidth plus the "effective" application bandwidth.

Each (case, pattern, granularity) combination primes and measures its
own freshly built cache+backend, so the grid is embarrassingly
parallel and declared as a :class:`~repro.exec.SweepSpec`.
"""

from __future__ import annotations

from typing import Dict

from repro.cache import DirectMappedCache
from repro.exec import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import cnn_platform_for
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import CachedBackend
from repro.perf.counters import Pattern, StoreType
from repro.perf.report import render_table
from repro.units import CACHE_LINE

#: Array-to-cache ratio matching the paper's 420 GB vs 192 GB.
OVERSUBSCRIPTION = 2.2

#: Case -> (measured kernel, store type, threads, priming kernel).
CASES = {
    "4a_read_clean_miss": (Kernel.READ_ONLY, StoreType.STANDARD, 24, Kernel.READ_ONLY),
    "4b_write_dirty_miss": (
        Kernel.WRITE_ONLY,
        StoreType.NONTEMPORAL,
        24,
        Kernel.WRITE_ONLY,
    ),
    "4c_rmw_ddo": (
        Kernel.READ_MODIFY_WRITE,
        StoreType.STANDARD,
        4,
        Kernel.WRITE_ONLY,
    ),
}


def _patterns(quick: bool):
    yield Pattern.SEQUENTIAL, 64
    for granularity in ((256,) if quick else (64, 256, 512)):
        yield Pattern.RANDOM, granularity


def _num_lines(platform) -> int:
    num_lines = int(platform.socket.dram_capacity * OVERSUBSCRIPTION) // CACHE_LINE
    return num_lines - num_lines % (512 // CACHE_LINE)  # largest granularity


def bench_case(
    case: str, pattern: Pattern, granularity: int, quick: bool
) -> Dict[str, float]:
    """One grid point: prime the cache, measure, report device bandwidths."""
    platform = cnn_platform_for(quick)
    scale = platform.scale_factor
    num_lines = _num_lines(platform)
    kernel, store, threads, prime_kernel = CASES[case]

    cache = DirectMappedCache(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    prime = KernelSpec(
        prime_kernel, pattern=pattern, granularity=granularity, threads=24
    )
    run_kernel(backend, prime, num_lines)
    spec = KernelSpec(
        kernel,
        pattern=pattern,
        granularity=granularity,
        store_type=store,
        threads=threads,
    )
    bench = run_kernel(backend, spec, num_lines)
    return {
        "dram_read": bench.bandwidth_gb_per_s("dram_reads") * scale,
        "dram_write": bench.bandwidth_gb_per_s("dram_writes") * scale,
        "nvram_read": bench.bandwidth_gb_per_s("nvram_reads") * scale,
        "nvram_write": bench.bandwidth_gb_per_s("nvram_writes") * scale,
        "effective": bench.effective_gb_per_s * scale,
        "amplification": bench.traffic.amplification,
        "hit_rate": bench.tags.hit_rate,
        "ddo_fraction": (
            bench.tags.ddo_writes / bench.traffic.demand_writes
            if bench.traffic.demand_writes
            else 0.0
        ),
    }


def sweep_spec(quick: bool) -> SweepSpec:
    """The full fig4 grid: every case x pattern/granularity combination."""
    points = [
        dict(case=case, pattern=pattern, granularity=granularity)
        for case in CASES
        for pattern, granularity in _patterns(quick)
    ]
    return SweepSpec.from_points("fig4", bench_case, points, common=dict(quick=quick))


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    spec = sweep_spec(quick)
    values = run_sweep(spec, jobs=jobs)

    cases: Dict[str, Dict[str, Dict[str, float]]] = {case: {} for case in CASES}
    for point, value in zip(spec.points, values):
        config = f"{point['pattern'].value}_{point['granularity']}"
        cases[point["case"]][config] = value

    result = ExperimentResult(
        name="fig4", title="2LM bandwidth at 100% miss rate (array >> cache)"
    )
    for case_name, rows in cases.items():
        table = [
            [
                config,
                f"{v['dram_read']:.1f}",
                f"{v['dram_write']:.1f}",
                f"{v['nvram_read']:.1f}",
                f"{v['nvram_write']:.1f}",
                f"{v['effective']:.1f}",
                f"{v['amplification']:.2f}",
            ]
            for config, v in rows.items()
        ]
        result.add(
            render_table(
                ["pattern", "DRAM rd", "DRAM wr", "NVRAM rd", "NVRAM wr", "effective", "amp"],
                table,
                title=f"Figure {case_name} — GB/s (hardware-equivalent)",
            )
        )
    result.data = cases
    return result
