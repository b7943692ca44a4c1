"""Vectorized direct-mapped 2LM DRAM cache.

Implements exactly the protocol documented in :mod:`repro.cache.flow`
(the Figure-3 flowchart), but processes whole batches of line addresses
with numpy in a single pass per batch: the segmented engine
(:mod:`repro.cache.engine`) groups each batch by set with at most one
sort (none at all when the duplicate probe proves the batch
collision-free, or when it is a run of consecutive lines, whose state
is then read and written by slice; one over only the repeated sets when
at least half of the batch's lines map to a set no other line in it
does), resolves duplicate occurrences with closed-form recurrences,
and applies every state update with array operations — no Python loop
over collision rounds, so
adversarial all-same-set batches cost the same as collision-free ones.  The result is bit-for-bit
equivalent to processing the batch one access at a time (property-tested
against :class:`~repro.cache.flow.ReferenceCache`).

The one :class:`~repro.cache.engine.BatchSegmenter` per model also
memoizes each frozen line vector's grouping: when ``llc_read`` and
``llc_write`` see the same (immutable) vector again — the
read-modify-write shape the executors generate, or a tensor a later
kernel reads — every pass after the first reuses the first pass's
grouping and skips its validation, so the vector costs one sort total.

Tag storage: the real hardware keeps the tag plus line state in the
spare ECC bits of each DRAM line (Section IV, Intel patent US 9563564).
We store the *full line address* as the tag, which is equivalent for a
direct-mapped cache and keeps the model exact.
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


class DirectMappedCache:
    """The Cascade Lake 2LM DRAM cache.

    Parameters
    ----------
    capacity:
        Cache capacity in bytes (e.g. the socket's 192 GiB of DRAM), a
        whole number of :data:`~repro.units.CACHE_LINE` lines.
    ddo_enabled:
        Model the Dirty Data Optimization (Section IV-C).  Disable for
        the ablation study.
    insert_on_write_miss:
        The real controller always inserts on a miss, even for writes
        that fully overwrite the line (Section IV-B).  Disabling gives
        the "write-around" design variant for ablations.
    """

    #: Metric family charged by :func:`record_cache_metrics`.
    cache_kind = "direct_mapped"

    def __init__(
        self,
        capacity: int,
        *,
        ddo_enabled: bool = True,
        insert_on_write_miss: bool = True,
    ) -> None:
        if capacity < CACHE_LINE:
            raise ConfigurationError(
                f"cache needs at least one {CACHE_LINE}B line, got {capacity} bytes"
            )
        if capacity % CACHE_LINE:
            raise ConfigurationError("capacity must be a whole number of lines")
        self.capacity = capacity
        self.num_sets = capacity // CACHE_LINE
        self.ddo_enabled = ddo_enabled
        self.insert_on_write_miss = insert_on_write_miss
        self._tags = np.full(self.num_sets, _INVALID, dtype=np.int64)
        self._dirty = np.zeros(self.num_sets, dtype=bool)
        self._known_resident = np.zeros(self.num_sets, dtype=bool)
        self._segmenter = _engine_ops.BatchSegmenter(self.num_sets)

    def reset(self) -> None:
        """Invalidate every set."""
        self._tags.fill(_INVALID)
        self._dirty.fill(False)
        self._known_resident.fill(False)

    # -- LLC read --------------------------------------------------------------

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        """Process a batch of LLC read requests (loads and RFOs)."""
        lines, seg = self._segmenter.segment(lines)
        traffic, tags = Traffic(), TagStats()
        traffic.demand_reads = int(lines.size)
        self._apply_read(lines, seg, traffic, tags)
        record_cache_metrics(self.cache_kind, traffic, tags)
        return traffic, tags

    def _apply_read(
        self,
        lines: np.ndarray,
        seg: _engine_ops.Grouping,
        traffic: Traffic,
        tags: TagStats,
    ) -> None:
        """Engine-level read hook; research variants override this."""
        counts, _ = _engine_ops.read_batch(
            lines, seg, self._tags, self._dirty, self._known_resident
        )
        self._charge_read(counts, traffic, tags)

    def _charge_read(
        self, counts: _engine_ops.ReadCounts, traffic: Traffic, tags: TagStats
    ) -> None:
        """Baseline demand-read cost model, shared with the variants.

        Every LLC read fetches tag+data from DRAM (the tag check); the
        miss handler adds NVRAM fetch + DRAM insert, plus a write-back
        when the victim is dirty.
        """
        traffic.dram_reads += counts.requests
        traffic.nvram_reads += counts.misses
        traffic.dram_writes += counts.misses
        traffic.nvram_writes += counts.dirty_misses
        tags.hits += counts.requests - counts.misses
        tags.clean_misses += counts.misses - counts.dirty_misses
        tags.dirty_misses += counts.dirty_misses

    # -- LLC write ---------------------------------------------------------------

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        """Process a batch of LLC write-backs (dirty evictions / NT stores)."""
        lines, seg = self._segmenter.segment(lines)
        traffic, tags = Traffic(), TagStats()
        traffic.demand_writes = int(lines.size)
        self._apply_write(lines, seg, traffic, tags)
        record_cache_metrics(self.cache_kind, traffic, tags)
        return traffic, tags

    def _apply_write(
        self,
        lines: np.ndarray,
        seg: _engine_ops.Grouping,
        traffic: Traffic,
        tags: TagStats,
    ) -> None:
        """Engine-level write hook; research variants override this."""
        counts = _engine_ops.write_batch(
            lines, seg, self._tags, self._dirty, self._known_resident,
            ddo_enabled=self.ddo_enabled,
            insert_on_write_miss=self.insert_on_write_miss,
        )
        # DDO writes go straight to DRAM; everything else tag-checks
        # first, hits update in place, and misses run the miss handler
        # (insert) or stream to NVRAM (write-around).
        traffic.dram_reads += counts.requests - counts.ddo_writes
        traffic.dram_writes += counts.ddo_writes + counts.hits
        if self.insert_on_write_miss:
            traffic.nvram_reads += counts.misses
            traffic.dram_writes += 2 * counts.misses
            traffic.nvram_writes += counts.dirty_misses
        else:
            traffic.nvram_writes += counts.misses
        tags.ddo_writes += counts.ddo_writes
        tags.hits += counts.hits
        tags.clean_misses += counts.misses - counts.dirty_misses
        tags.dirty_misses += counts.dirty_misses

    # -- introspection --------------------------------------------------------

    def contains(self, lines: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``lines`` are currently cached."""
        lines = as_lines(lines)
        return self._tags[lines % self.num_sets] == lines

    def is_dirty(self, lines: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``lines`` are cached *and* dirty."""
        lines = as_lines(lines)
        sets = lines % self.num_sets
        return (self._tags[sets] == lines) & self._dirty[sets]

    @property
    def occupancy(self) -> float:
        """Fraction of sets holding a valid line."""
        return float((self._tags != _INVALID).mean())

    @property
    def dirty_fraction(self) -> float:
        """Fraction of sets holding a dirty line."""
        return float(self._dirty.mean())
