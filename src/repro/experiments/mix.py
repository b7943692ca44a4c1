"""Extension study: mixed read/write NVRAM bandwidth.

Yang et al. (FAST'20), which the paper leans on for its NVRAM
characterization, shows Optane bandwidth degrading sharply once reads
and writes interleave.  This experiment sweeps the load:store ratio of
a mixed kernel over NVRAM in 1LM and over the DRAM cache in 2LM,
completing the device characterization the paper's Figure 2 starts and
showing that the 2LM cache is exposed to the *worst* region of the
mixed-bandwidth surface (its miss handler always interleaves fills with
write-backs).
"""

from __future__ import annotations

from repro.cache import DirectMappedCache
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import cnn_platform_for
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import AddressMap, CachedBackend, FlatBackend
from repro.perf.report import render_table
from repro.units import CACHE_LINE

READ_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def run(quick: bool = False) -> ExperimentResult:
    platform = cnn_platform_for(quick)
    scale = platform.scale_factor
    num_lines = int(platform.socket.dram_capacity * 2.2) // CACHE_LINE
    fractions = (0.0, 0.5, 1.0) if quick else READ_FRACTIONS

    rows = []
    data = {"1lm": {}, "2lm": {}}
    for fraction in fractions:
        spec = KernelSpec(Kernel.MIXED, threads=24, read_fraction=fraction)

        flat = FlatBackend(
            platform, AddressMap.nvram_only(platform.socket.nvram_capacity // CACHE_LINE)
        )
        direct = run_kernel(flat, spec, num_lines)

        cache = DirectMappedCache(platform.socket.dram_capacity)
        cached_backend = CachedBackend(platform, cache)
        run_kernel(cached_backend, spec, num_lines)  # prime
        cached = run_kernel(cached_backend, spec, num_lines)

        flat_bw = direct.effective_gb_per_s * scale
        cached_bw = cached.effective_gb_per_s * scale
        data["1lm"][fraction] = flat_bw
        data["2lm"][fraction] = cached_bw
        rows.append(
            [
                f"{fraction:.2f}",
                f"{flat_bw:.1f}",
                f"{cached_bw:.1f}",
                f"{cached.traffic.amplification:.2f}x",
            ]
        )

    result = ExperimentResult(
        name="mix", title="Mixed read/write bandwidth, 1LM vs 2LM (extension)"
    )
    result.add(
        render_table(
            ["read fraction", "1LM GB/s", "2LM GB/s", "2LM amp"],
            rows,
            title="Effective bandwidth vs load:store ratio (hw-equivalent)",
        )
    )
    result.data = data
    return result
