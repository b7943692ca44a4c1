"""Ablation study: which 2LM design choices cause the pathology?

The paper attributes the performance cliffs to three design points
(Section I): the direct-mapped insert-on-miss organization, the extra
non-demand accesses, and semantically dead dirty data.  This experiment
varies the cache design — Dirty Data Optimization on/off, always-insert
vs write-around on write misses, direct-mapped vs 8-way LRU — and
re-measures a DenseNet 2LM iteration under each variant.

Each variant is one point of a :class:`~repro.exec.SweepSpec` (the
variant *name* is the parameter — the factories are looked up in the
worker, keeping points picklable), so the design space fans across
worker processes under ``--jobs``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from repro.cache import (
    BypassCache,
    DirectMappedCache,
    MissPredictorCache,
    NextLinePrefetchCache,
    SectorCache,
    SetAssociativeCache,
)
from repro.exec import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import cnn_platform_for, training_setup
from repro.memsys import CachedBackend
from repro.nn import execute_iteration
from repro.perf.report import render_table
from repro.units import CACHE_LINE, GB

#: Variant name -> (cache factory, sample stride).  Stride sampling is
#: exact for designs whose behaviour depends only on set mapping, but a
#: sampled stream never demands the neighbours a *spatial* design
#: prefetches — those variants run unsampled (stride 1).
VARIANTS: Dict[str, tuple] = {
    "baseline (direct-mapped, DDO, insert-on-miss)": (
        lambda cap: DirectMappedCache(cap), 16),
    "no DDO": (lambda cap: DirectMappedCache(cap, ddo_enabled=False), 16),
    "write-around (no insert on write miss)": (
        lambda cap: DirectMappedCache(cap, insert_on_write_miss=False), 16),
    "8-way LRU": (lambda cap: SetAssociativeCache(cap, ways=8), 16),
    # Research proposals from the DRAM-cache literature (Section II).
    "miss predictor (MissMap-style, 95%)": (
        lambda cap: MissPredictorCache(cap, accuracy=0.95), 16),
    "bandwidth-aware bypass (BEAR-style, 10% insert)": (
        lambda cap: BypassCache(cap, insert_probability=0.1), 16),
    "next-line prefetch in the miss handler": (
        lambda cap: NextLinePrefetchCache(cap), 1),
    "sector cache (2 KiB sectors, footprint 4)": (
        lambda cap: SectorCache(cap, sector_lines=32, footprint=4), 1),
}


def run_variant(variant: str, quick: bool) -> Dict[str, float]:
    """One grid point: a full 2LM DenseNet iteration under one design."""
    platform = cnn_platform_for(quick)
    scale = platform.scale_factor
    training, plan = training_setup("densenet264", quick=quick)
    factory, stride = VARIANTS[variant]

    cache = factory(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    execution = execute_iteration(plan, backend, sample_stride=stride)
    traffic, tags = execution.traffic, execution.tags
    return {
        "seconds": execution.seconds,
        "amplification": traffic.amplification,
        "hit_rate": tags.hit_rate,
        "nvram_read_gb": traffic.nvram_reads * CACHE_LINE * scale / GB,
        "nvram_write_gb": traffic.nvram_writes * CACHE_LINE * scale / GB,
        "ddo_writes": tags.ddo_writes,
    }


def sweep_spec(quick: bool) -> SweepSpec:
    return SweepSpec.grid(
        "ablation",
        run_variant,
        axes={"variant": list(VARIANTS)},
        common=dict(quick=quick),
    )


@lru_cache(maxsize=4)
def run(quick: bool = True, jobs: int = 1) -> ExperimentResult:
    data_by_variant = dict(
        zip(VARIANTS, run_sweep(sweep_spec(quick), jobs=jobs))
    )

    result = ExperimentResult(
        name="ablation", title="DRAM-cache design-space ablation (DenseNet iteration)"
    )
    rows = []
    for name, v in data_by_variant.items():
        rows.append(
            [
                name,
                f"{v['seconds']:.0f}",
                f"{v['amplification']:.2f}",
                f"{v['hit_rate']:.3f}",
                f"{v['nvram_read_gb']:.0f}",
                f"{v['nvram_write_gb']:.0f}",
            ]
        )

    result.add(
        render_table(
            ["variant", "runtime s", "amp", "hit rate", "NVRAM rd GB", "NVRAM wr GB"],
            rows,
            title="Ablation — one training iteration in 2LM per cache variant",
        )
    )
    result.data = data_by_variant
    return result
