"""Figure 2: raw NVRAM bandwidth in 1LM (app-direct).

(a) read bandwidth with standard loads, (b) write bandwidth with
nontemporal stores — as functions of thread count, access pattern, and
granularity, over six interleaved NVRAM DIMMs.

The measurement grid (side x pattern x granularity x threads) is
declared as a :class:`~repro.exec.SweepSpec`; every point builds its
own backend, so points are independent and ``jobs>1`` fans them across
worker processes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import InvariantError
from repro.exec import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import cnn_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import AddressMap, FlatBackend
from repro.perf.counters import Pattern, StoreType
from repro.perf.report import render_table
from repro.units import CACHE_LINE, MiB

THREAD_COUNTS = (1, 2, 4, 8, 16, 24)
GRANULARITIES = (64, 128, 256, 512)

#: Figure side -> (kernel, store type).
SIDES = {
    "read": (Kernel.READ_ONLY, StoreType.STANDARD),
    "write": (Kernel.WRITE_ONLY, StoreType.NONTEMPORAL),
}


def _configs():
    yield Pattern.SEQUENTIAL, 64
    for granularity in GRANULARITIES:
        yield Pattern.RANDOM, granularity


def bench_point(
    side: str, pattern: Pattern, granularity: int, threads: int, quick: bool
) -> float:
    """One grid point: effective GB/s for one (side, pattern, threads)."""
    platform = cnn_platform()
    buffer_lines = ((8 if quick else 48) * MiB) // CACHE_LINE
    nvram_lines = platform.socket.nvram_capacity // CACHE_LINE
    kernel, store = SIDES[side]
    backend = FlatBackend(platform, AddressMap.nvram_only(nvram_lines))
    spec = KernelSpec(
        kernel,
        pattern=pattern,
        granularity=granularity,
        store_type=store,
        threads=threads,
    )
    bench = run_kernel(backend, spec, buffer_lines)
    return bench.effective_gb_per_s * platform.scale_factor


def sweep_spec(quick: bool) -> SweepSpec:
    """The full fig2 grid, in rendering order."""
    threads = (1, 4, 8, 24) if quick else THREAD_COUNTS
    points = [
        dict(side=side, pattern=pattern, granularity=granularity, threads=n)
        for side in SIDES
        for pattern, granularity in _configs()
        for n in threads
    ]
    return SweepSpec.from_points("fig2", bench_point, points, common=dict(quick=quick))


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    threads = (1, 4, 8, 24) if quick else THREAD_COUNTS
    spec = sweep_spec(quick)
    values = run_sweep(spec, jobs=jobs)

    result = ExperimentResult(
        name="fig2", title="NVRAM bandwidth, 6 interleaved DIMMs (1LM)"
    )
    bandwidths: Dict[str, Dict[Tuple[str, int, int], float]] = {"read": {}, "write": {}}
    cursor = iter(zip(spec.points, values))
    for side in SIDES:
        rows = []
        for pattern, granularity in _configs():
            cells = [f"{pattern.value} {granularity}B"]
            for n in threads:
                point, gbps = next(cursor)
                expected = dict(
                    side=side, pattern=pattern, granularity=granularity, threads=n
                )
                if point != expected:
                    raise InvariantError(
                        f"fig2 sweep returned out of grid order: got {point}, "
                        f"expected {expected}"
                    )
                bandwidths[side][(pattern.value, granularity, n)] = gbps
                cells.append(f"{gbps:.1f}")
            rows.append(cells)
        label = "(a) read, standard loads" if side == "read" else "(b) write, NT stores"
        result.add(
            render_table(
                ["pattern"] + [f"{n}T" for n in threads],
                rows,
                title=f"Figure 2{label} — GB/s (hardware-equivalent)",
            )
        )

    result.data = {
        "bandwidth": bandwidths,
        "threads": list(threads),
        "peak_read": max(bandwidths["read"].values()),
        "peak_write": max(bandwidths["write"].values()),
    }
    return result
