"""Alternative DRAM-cache designs for ablation studies.

The paper's first identified limitation is that the cache is
*direct-mapped and insert-on-miss* (Section I).  To quantify how much of
the observed pathology is due to that design point versus inherent to a
hardware cache, the ablation benchmarks compare the real design against:

* :class:`SetAssociativeCache` — same protocol, LRU associativity, which
  removes conflict misses but keeps the tag-check and fill traffic.
* ``DirectMappedCache(insert_on_write_miss=False)`` — a write-around
  variant that avoids the wasteful fill-on-write-miss.
* ``DirectMappedCache(ddo_enabled=False)`` — measures how much the
  Dirty Data Optimization actually saves.

LRU recency stamps couple same-set occurrences of *different* lines
(every access reorders the whole recency stack), so the closed-form
duplicate resolution of the direct-mapped engine does not apply; the
engine instead resolves one shared sort round-by-round.  A line that
repeats its set's previous occurrence hits the MRU way with no lookup
and no victim, so it folds into the head of its run of repeats, and a
batch takes as many rounds as the largest number of runs in one set.
Collision-free batches (proven by the duplicate probe) skip both the
sort and the loop.  See :func:`repro.cache.engine.setassoc_read_batch`.
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


class SetAssociativeCache:
    """An LRU set-associative DRAM cache following the same IMC protocol.

    Identical access costs to the direct-mapped design (tag check on
    every non-DDO request, insert on miss, dirty write-back) — only the
    mapping flexibility changes, isolating the effect of conflict misses.
    """

    cache_kind = "set_associative"

    def __init__(
        self,
        capacity: int,
        *,
        ways: int = 8,
        ddo_enabled: bool = True,
    ) -> None:
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        if capacity % (CACHE_LINE * ways):
            raise ConfigurationError(
                f"capacity {capacity} is not divisible into {ways}-way sets"
            )
        self.capacity = capacity
        self.ways = ways
        self.num_sets = capacity // (CACHE_LINE * ways)
        self.ddo_enabled = ddo_enabled
        self._tags = np.full((self.num_sets, ways), _INVALID, dtype=np.int64)
        self._dirty = np.zeros((self.num_sets, ways), dtype=bool)
        self._known_resident = np.zeros((self.num_sets, ways), dtype=bool)
        self._stamp = np.zeros((self.num_sets, ways), dtype=np.int64)
        self._clock = np.int64(0)
        self._segmenter = _engine_ops.BatchSegmenter(self.num_sets)

    def reset(self) -> None:
        self._tags.fill(_INVALID)
        self._dirty.fill(False)
        self._known_resident.fill(False)
        self._stamp.fill(0)
        self._clock = np.int64(0)

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines, seg = self._segmenter.segment(lines)
        traffic, tags = Traffic(), TagStats()
        traffic.demand_reads = int(lines.size)
        counts, self._clock = _engine_ops.setassoc_read_batch(
            lines, seg, self._tags, self._dirty, self._known_resident,
            self._stamp, self._clock,
        )
        traffic.dram_reads += counts.requests
        traffic.nvram_reads += counts.misses
        traffic.dram_writes += counts.misses
        traffic.nvram_writes += counts.dirty_misses
        tags.hits += counts.requests - counts.misses
        tags.clean_misses += counts.misses - counts.dirty_misses
        tags.dirty_misses += counts.dirty_misses
        record_cache_metrics(self.cache_kind, traffic, tags)
        return traffic, tags

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines, seg = self._segmenter.segment(lines)
        traffic, tags = Traffic(), TagStats()
        traffic.demand_writes = int(lines.size)
        counts, self._clock = _engine_ops.setassoc_write_batch(
            lines, seg, self._tags, self._dirty, self._known_resident,
            self._stamp, self._clock,
            ddo_enabled=self.ddo_enabled,
        )
        traffic.dram_writes += counts.ddo_writes + counts.hits
        traffic.dram_reads += counts.requests - counts.ddo_writes
        traffic.nvram_writes += counts.dirty_misses
        traffic.nvram_reads += counts.misses
        traffic.dram_writes += 2 * counts.misses
        tags.ddo_writes += counts.ddo_writes
        tags.hits += counts.hits
        tags.clean_misses += counts.misses - counts.dirty_misses
        tags.dirty_misses += counts.dirty_misses
        record_cache_metrics(self.cache_kind, traffic, tags)
        return traffic, tags

    # -- introspection -----------------------------------------------------

    def contains(self, lines: np.ndarray) -> np.ndarray:
        lines = as_lines(lines)
        sets = lines % self.num_sets
        return (self._tags[sets] == lines[:, None]).any(axis=1)

    @property
    def occupancy(self) -> float:
        return float((self._tags != _INVALID).mean())

    @property
    def dirty_fraction(self) -> float:
        return float(self._dirty.mean())
