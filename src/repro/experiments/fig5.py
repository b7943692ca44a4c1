"""Figure 5: memory behaviour of one DenseNet 264 training iteration in 2LM.

(a) retired-instruction rate, (b) DRAM-cache tag statistics, (c) DRAM
and NVRAM bandwidth through time, (d) the ngraph heap's liveness map.
One warm-up iteration prepares the cache state, as in the paper.

The warm-up and the measured iteration share one backend — a
sequential dependency — so the sweep grid is a single point that
renders the whole figure in the worker.  Declaring it as a
:class:`~repro.exec.SweepSpec` keeps the experiment uniform with the
other figures: ``repro-experiment all --jobs N`` can place the
iteration in a worker process and its telemetry merges back like any
other sweep point's.
"""

from __future__ import annotations

import numpy as np

from repro.cache import DirectMappedCache
from repro.exec import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import CNN_STRIDE, cnn_platform_for, training_setup
from repro.memsys import CachedBackend
from repro.nn import execute_iteration
from repro.nn.liveness import live_bytes_series
from repro.perf import CounterSampler
from repro.perf.memmap import render_memory_map
from repro.perf.report import render_series
from repro.units import format_bytes, to_gb_per_s


def iteration_snapshot(network: str, quick: bool) -> ExperimentResult:
    """The single grid point: one instrumented 2LM training iteration."""
    platform = cnn_platform_for(quick)
    scale = platform.scale_factor
    training, plan = training_setup(network, quick)
    cache = DirectMappedCache(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    sampler = CounterSampler(backend.counters)

    execution = execute_iteration(plan, backend, sample_stride=CNN_STRIDE, sampler=sampler)
    trace = sampler.trace()

    # Forward/backward boundary in virtual time.
    boundary = execution.records[training.backward_start].start - execution.records[0].start

    mips = trace.mips_series() * scale
    hits = trace.tag_rate_series("hits")
    dirty = trace.tag_rate_series("dirty_misses")
    clean = trace.tag_rate_series("clean_misses")
    dram_read = to_gb_per_s(trace.bandwidth_series("dram_reads") * scale)
    dram_write = to_gb_per_s(trace.bandwidth_series("dram_writes") * scale)
    nvram_read = to_gb_per_s(trace.bandwidth_series("nvram_reads") * scale)
    nvram_write = to_gb_per_s(trace.bandwidth_series("nvram_writes") * scale)

    live_series = np.array(live_bytes_series(plan.lives, len(plan.graph.ops)))

    result = ExperimentResult(
        name="fig5", title=f"{network} training iteration in 2LM (batch-scaled)"
    )
    result.add(
        f"iteration time: {execution.seconds:.1f} virtual seconds "
        f"(forward pass ends at {boundary:.1f} s)"
    )
    result.add(
        "\n".join(
            [
                "Figure 5a — system MIPS (hardware-equivalent)",
                render_series(mips, "MIPS"),
            ]
        )
    )
    result.add(
        "\n".join(
            [
                "Figure 5b — DRAM cache tag events per second",
                render_series(hits, "tag hits"),
                render_series(dirty, "dirty tag misses"),
                render_series(clean, "clean tag misses"),
            ]
        )
    )
    result.add(
        "\n".join(
            [
                "Figure 5c — memory bandwidth (GB/s, hardware-equivalent)",
                render_series(dram_read, "DRAM read"),
                render_series(dram_write, "DRAM write"),
                render_series(nvram_read, "NVRAM read"),
                render_series(nvram_write, "NVRAM write"),
            ]
        )
    )
    result.add(
        "\n".join(
            [
                "Figure 5d — live heap bytes over the schedule "
                f"(buffer {format_bytes(plan.buffer_bytes)}, "
                f"DRAM cache {format_bytes(platform.socket.dram_capacity)})",
                render_series(live_series, "live bytes"),
                "",
                "Figure 5d — memory position vs time (shade = live fraction)",
                render_memory_map(plan, boundary_op=training.backward_start),
            ]
        )
    )

    tags = execution.tags
    result.data = {
        "iteration_seconds": execution.seconds,
        "forward_seconds": boundary,
        "hit_rate": tags.hit_rate,
        "clean_misses": tags.clean_misses,
        "dirty_misses": tags.dirty_misses,
        "ddo_writes": tags.ddo_writes,
        "peak_live_bytes": int(live_series.max()),
        "buffer_bytes": plan.buffer_bytes,
        "cache_bytes": platform.socket.dram_capacity,
        "traffic": execution.traffic,
        "mips": mips,
        "hits_rate_series": hits,
        "dirty_rate_series": dirty,
        "clean_rate_series": clean,
        "nvram_write_series": nvram_write,
        "dram_read_series": dram_read,
        "times": trace.times,
        "forward_fraction_of_ops": training.backward_start / len(plan.graph.ops),
    }
    return result


def sweep_spec(quick: bool, network: str = "densenet264") -> SweepSpec:
    return SweepSpec.from_points(
        "fig5",
        iteration_snapshot,
        [dict(network=network)],
        common=dict(quick=quick),
    )


def run(quick: bool = False, network: str = "densenet264", jobs: int = 1) -> ExperimentResult:
    (result,) = run_sweep(sweep_spec(quick, network), jobs=jobs)
    return result
