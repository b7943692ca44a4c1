"""Sector (footprint) DRAM cache — the die-stacked-cache lineage.

The paper's related work (Section II) cites page-granularity DRAM-cache
proposals (Unison, Footprint Cache) that amortize tag storage over large
sectors and fetch only the lines a page's *footprint* predicts.  This
model captures their bandwidth behaviour:

* The cache is direct-mapped at **sector** granularity (default 2 KiB);
  one tag covers the whole sector, with per-line valid and dirty bits.
* A demand miss to a cached sector ("line miss") fetches just that line.
* A sector miss evicts the old sector (writing back only its dirty
  lines) and fetches a ``footprint`` of lines starting at the demand
  line — the predicted-footprint fetch.
* Writes follow the same always-insert IMC protocol as the baseline.

Compared with the Cascade Lake design, sector caches trade conflict
behaviour (fewer, larger sets) for spatial prefetch and cheaper tags.

Per-line valid/dirty state is a single ``uint64`` bitmap per set (which
caps ``sector_lines`` at 64 — every configuration the paper's lineage
uses fits), so the segmented engine (:mod:`repro.cache.engine`) can
resolve whole batches with bitwise closed forms: writes in one pass of
``bitwise_or.reduceat`` over the miss-delimited run partition, reads
with a fill-resolution loop bounded by ``sector_lines`` — never by
batch size.  The scalar oracle is
:class:`~repro.cache.flow.ScalarSectorCache`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cache import engine as _engine_ops
from repro.cache.base import record_cache_metrics
from repro.errors import ConfigurationError
from repro.perf.counters import TagStats, Traffic, as_lines
from repro.units import CACHE_LINE

_INVALID = np.int64(-1)


class SectorCache:
    """Direct-mapped sector cache with footprint fetch."""

    cache_kind = "sector"

    def __init__(
        self,
        capacity: int,
        *,
        sector_lines: int = 32,
        footprint: int = 4,
    ) -> None:
        if sector_lines < 1 or footprint < 1:
            raise ConfigurationError("sector_lines and footprint must be >= 1")
        if sector_lines > 64:
            raise ConfigurationError(
                f"sector_lines must fit a 64-bit line bitmap, got {sector_lines}"
            )
        if footprint > sector_lines:
            raise ConfigurationError("footprint cannot exceed the sector size")
        sector_bytes = sector_lines * CACHE_LINE
        if capacity < sector_bytes or capacity % sector_bytes:
            raise ConfigurationError(
                f"capacity must be a positive multiple of the {sector_bytes}B sector"
            )
        self.capacity = capacity
        self.sector_lines = sector_lines
        self.footprint = footprint
        self.num_sets = capacity // sector_bytes  # sector-granularity sets
        self._tags = np.full(self.num_sets, _INVALID, dtype=np.int64)
        # One valid/dirty bit per line, packed per set.
        self._valid = np.zeros(self.num_sets, dtype=np.uint64)
        self._dirty = np.zeros(self.num_sets, dtype=np.uint64)
        self._segmenter = _engine_ops.BatchSegmenter(self.num_sets)

    def reset(self) -> None:
        self._tags.fill(_INVALID)
        self._valid.fill(0)
        self._dirty.fill(0)

    # -- geometry ----------------------------------------------------------

    def _decompose(self, lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        sector = lines // self.sector_lines
        offset = lines - sector * self.sector_lines
        index = _engine_ops.set_index(sector, self.num_sets)
        return sector, offset, index

    # -- LLC interface ---------------------------------------------------------

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        traffic.demand_reads = int(lines.size)
        sector, offset, index = self._decompose(lines)
        _, seg = self._segmenter.segment(lines, index)
        counts = _engine_ops.sector_read_batch(
            sector, offset, seg, self._tags, self._valid, self._dirty,
            footprint=self.footprint, sector_lines=self.sector_lines,
        )
        # Every request probes DRAM (tag + data); footprint fetches move
        # lines NVRAM→DRAM; sector evictions write back dirty lines.
        traffic.dram_reads += counts.requests
        traffic.nvram_reads += counts.fetched_lines
        traffic.dram_writes += counts.fetched_lines
        traffic.nvram_writes += counts.evicted_lines
        tags.hits += counts.hits
        tags.clean_misses += counts.line_misses
        tags.clean_misses += counts.sector_misses - counts.dirty_sector_misses
        tags.dirty_misses += counts.dirty_sector_misses
        record_cache_metrics(self.cache_kind, traffic, tags)
        return traffic, tags

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        traffic.demand_writes = int(lines.size)
        sector, offset, index = self._decompose(lines)
        _, seg = self._segmenter.segment(lines, index)
        counts = _engine_ops.sector_write_batch(
            sector, offset, seg, self._tags, self._valid, self._dirty
        )
        # Tag check on every write; hits update the line in place, and a
        # sector miss installs the written line directly (the store fully
        # overwrites it, so nothing is fetched) after evicting the dirty
        # lines of the old sector.
        traffic.dram_reads += counts.requests
        traffic.dram_writes += counts.hits + counts.sector_misses
        traffic.nvram_writes += counts.evicted_lines
        tags.hits += counts.hits
        tags.clean_misses += counts.sector_misses - counts.dirty_sector_misses
        tags.dirty_misses += counts.dirty_sector_misses
        record_cache_metrics(self.cache_kind, traffic, tags)
        return traffic, tags

    # -- introspection -----------------------------------------------------------

    def contains(self, lines: np.ndarray) -> np.ndarray:
        lines = as_lines(lines)
        sector, offset, index = self._decompose(lines)
        bit = (self._valid[index] >> offset.astype(np.uint64)) & np.uint64(1)
        return (self._tags[index] == sector) & (bit != np.uint64(0))

    @property
    def occupancy(self) -> float:
        """Fraction of line slots holding a valid line."""
        total = _engine_ops.popcount(self._valid).sum()
        return float(total / (self.num_sets * self.sector_lines))

    @property
    def dirty_fraction(self) -> float:
        """Fraction of line slots holding a dirty line."""
        total = _engine_ops.popcount(self._dirty).sum()
        return float(total / (self.num_sets * self.sector_lines))
