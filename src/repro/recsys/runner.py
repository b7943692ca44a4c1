"""Executes embedding workloads against the memory system.

Three configurations, paralleling the paper's case studies:

* ``2lm``     — all tables behind the hardware DRAM cache.
* ``bandana`` — 1LM: popularity-placed hot rows in DRAM, the long tail
  in NVRAM (software-managed).
* ``nvram``   — 1LM, everything in NVRAM (the no-management floor).

Each batch gathers the embedding rows its samples reference (random
reads at row granularity), optionally scatters gradient updates back
(training), and overlaps the dense MLP compute.  Lines touched more
than once in a batch are deduplicated — the on-chip cache absorbs
repeats of hot rows within a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cache import DirectMappedCache
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.memsys.backends import CachedBackend, FlatBackend, MemoryBackend
from repro.perf.counters import (
    AccessContext,
    AccessKind,
    Pattern,
    TagStats,
    Traffic,
)
from repro.memsys.topology import AddressMap
from repro.recsys.embedding import EmbeddingModel, LookupTrace
from repro.recsys.placement import HotRowPlacement
from repro.units import CACHE_LINE

MODES = ("2lm", "bandana", "nvram")


@dataclass
class RecsysResult:
    """Outcome of one embedding-workload run."""

    mode: str
    batches: int
    batch_size: int
    seconds: float
    traffic: Traffic
    tags: TagStats
    dram_hit_fraction: float  # fraction of lookups served from DRAM

    @property
    def samples_per_second(self) -> float:
        if not self.seconds:
            return 0.0
        return self.batches * self.batch_size / self.seconds


class _Layout:
    """Line addresses for every (table, row) under one configuration."""

    def __init__(
        self,
        model: EmbeddingModel,
        placement: Optional[HotRowPlacement],
        dram_lines: int,
    ) -> None:
        self.model = model
        self.placement = placement
        # Full tables live contiguously in the "cold" region.
        self._table_base: List[int] = []
        cursor = dram_lines  # cold region starts after the DRAM window
        for table in model.tables:
            self._table_base.append(cursor)
            cursor += -(-table.size_bytes // CACHE_LINE)
        self.total_lines = cursor
        # Hot copies pack into the DRAM window.
        self._hot_slot: List[np.ndarray] = []
        if placement is not None:
            slot = 0
            for t_index, table in enumerate(model.tables):
                slots = np.full(table.rows, -1, dtype=np.int64)
                hot = np.flatnonzero(placement.hot_masks[t_index])
                lines_per_row = -(-table.row_bytes // CACHE_LINE)
                slots[hot] = slot + np.arange(hot.size) * lines_per_row
                slot += hot.size * lines_per_row
                self._hot_slot.append(slots)
            if slot > dram_lines:
                raise ConfigurationError("hot rows overflow the DRAM window")

    def row_lines(self, t_index: int, rows: np.ndarray) -> np.ndarray:
        """Line addresses covering the given rows (deduplicated)."""
        table = self.model.tables[t_index]
        lines_per_row = -(-table.row_bytes // CACHE_LINE)
        unique_rows = np.unique(rows)
        if self.placement is None:
            first = self._table_base[t_index] + unique_rows * lines_per_row
        else:
            slots = self._hot_slot[t_index][unique_rows]
            cold = self._table_base[t_index] + unique_rows * lines_per_row
            first = np.where(slots >= 0, slots, cold)
        expanded = first[:, None] + np.arange(lines_per_row, dtype=np.int64)
        return expanded.reshape(-1)


def run_recsys(
    model: EmbeddingModel,
    trace: LookupTrace,
    platform: PlatformConfig,
    mode: str = "2lm",
    *,
    placement: Optional[HotRowPlacement] = None,
    training: bool = True,
    threads: int = 24,
) -> RecsysResult:
    """Run a lookup trace under one memory configuration."""
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; pick from {MODES}")
    if mode == "bandana" and placement is None:
        raise ConfigurationError("bandana mode needs a HotRowPlacement")

    dram_lines = platform.socket.dram_capacity // CACHE_LINE
    layout = _Layout(model, placement if mode == "bandana" else None, dram_lines)

    backend: MemoryBackend
    if mode == "2lm":
        # All tables NVRAM-backed behind the cache; addresses relative 0.
        cache = DirectMappedCache(platform.socket.dram_capacity)
        backend = CachedBackend(platform, cache)
    else:
        nvram_lines = max(layout.total_lines - dram_lines, 1)
        backend = FlatBackend(
            platform, AddressMap.numa_preferred(dram_lines, nvram_lines)
        )

    row_bytes = model.tables[0].row_bytes if model.tables else CACHE_LINE
    ctx = AccessContext(
        threads=threads,
        pattern=Pattern.RANDOM,
        granularity=max(CACHE_LINE, min(row_bytes, 512)),
    )
    cpu = platform.socket.cpu

    start = backend.counters.snapshot()
    dram_lookups = 0
    total_lookups = 0
    for batch in trace.lookups:
        with backend.epoch(ctx) as epoch:
            for t_index, rows in enumerate(batch):
                lines = layout.row_lines(t_index, rows)
                backend.access(lines, AccessKind.LLC_READ, ctx)
                if training:
                    # Gradient update: rewrite the freshly read rows.
                    backend.access(lines, AccessKind.LLC_WRITE, ctx)
                total_lookups += rows.size
                if mode == "bandana":
                    hot = layout.placement.hot_masks[t_index][rows]
                    dram_lookups += int(hot.sum())
            epoch.add_compute(
                trace.batch_size * model.mlp_flops_per_sample / cpu.peak_flops
            )
        backend.counters.retire(
            int(trace.batch_size * model.mlp_flops_per_sample * cpu.instructions_per_flop)
        )
    delta = backend.counters.snapshot().delta(start)

    if mode == "2lm":
        hit_fraction = delta.tags.hit_rate
    elif mode == "bandana":
        hit_fraction = dram_lookups / total_lookups if total_lookups else 0.0
    else:
        hit_fraction = 0.0

    return RecsysResult(
        mode=mode,
        batches=trace.num_batches,
        batch_size=trace.batch_size,
        seconds=delta.time,
        traffic=delta.traffic,
        tags=delta.tags,
        dram_hit_fraction=hit_fraction,
    )
