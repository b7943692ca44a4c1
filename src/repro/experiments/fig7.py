"""Figure 7: graph-kernel performance in 2LM, kron vs wdc.

When the input fits the DRAM cache (kron), the kernels run at DRAM
bandwidth with little NVRAM traffic; when it does not (wdc), bandwidth
collapses and NVRAM traffic appears (Section VI-C).

The grid is (graph x kernel); each point builds its own backend and
runtime, so the eight points fan across worker processes.  Workers
reconstruct the CSR input from its (label, quick) key — the graph
builders in :mod:`repro.experiments.platform` are ``lru_cache``-d, so
with ``fork`` the parent's already-built graphs are inherited
copy-on-write and points pay nothing.
"""

from __future__ import annotations

from typing import Dict

from repro.exec import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.graphcommon import KERNELS, run_graph_kernel
from repro.experiments.platform import graph_platform_for, kron_graph, wdc_graph
from repro.perf.report import render_table
from repro.units import format_bytes

GRAPHS = ("kron", "wdc")


def _graph_for(label: str, quick: bool):
    return kron_graph(quick) if label == "kron" else wdc_graph(quick)


def graph_point(label: str, kernel: str, quick: bool) -> Dict[str, float]:
    """One grid point: run one lonestar kernel over one input in 2LM."""
    csr = _graph_for(label, quick)
    run_result = run_graph_kernel(kernel, csr, mode="2lm", quick=quick)
    dram = run_result.bandwidth_gbps("dram_reads") + run_result.bandwidth_gbps(
        "dram_writes"
    )
    nvram = run_result.bandwidth_gbps("nvram_reads") + run_result.bandwidth_gbps(
        "nvram_writes"
    )
    return {
        "seconds": run_result.seconds,
        "dram_gbps": dram,
        "nvram_gbps": nvram,
        "hit_rate": run_result.tags.hit_rate,
    }


def sweep_spec(quick: bool) -> SweepSpec:
    return SweepSpec.grid(
        "fig7",
        graph_point,
        axes={"label": GRAPHS, "kernel": KERNELS},
        common=dict(quick=quick),
    )


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    platform = graph_platform_for(quick)
    cache_bytes = 2 * platform.socket.dram_capacity
    spec = sweep_spec(quick)
    values = run_sweep(spec, jobs=jobs)
    by_point = dict(zip(((p["label"], p["kernel"]) for p in spec.points), values))

    result = ExperimentResult(
        name="fig7", title="Graph kernels in 2LM: cache-resident vs cache-exceeding"
    )
    data = {"cache_bytes": cache_bytes}
    for label in GRAPHS:
        csr = _graph_for(label, quick)
        rows = []
        data[label] = {"binary_bytes": csr.binary_bytes, "kernels": {}}
        for kernel in KERNELS:
            point = by_point[(label, kernel)]
            rows.append(
                [
                    kernel,
                    f"{point['seconds']:.2f}",
                    f"{point['dram_gbps']:.1f}",
                    f"{point['nvram_gbps']:.1f}",
                    f"{point['hit_rate']:.2f}",
                ]
            )
            data[label]["kernels"][kernel] = point
        fits = "fits in" if csr.binary_bytes < cache_bytes else "exceeds"
        result.add(
            render_table(
                ["kernel", "runtime s", "DRAM GB/s", "NVRAM GB/s", "hit rate"],
                rows,
                title=(
                    f"Figure 7 ({label}): binary {format_bytes(csr.binary_bytes)} "
                    f"{fits} the {format_bytes(cache_bytes)} DRAM cache "
                    f"(bandwidth hardware-equivalent)"
                ),
            )
        )
    result.data = data
    return result
