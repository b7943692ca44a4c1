"""Research DRAM-cache designs from the literature the paper engages.

Section II notes that DRAM caches "have been well studied in simulation"
and that prior proposals skipped implementation realities; Section VII
hopes the paper's insights "influence the next era of DRAM cache
development".  These variants quantify how much of the measured
pathology the published techniques would recover:

* :class:`MissPredictorCache` — a MissMap/Alloy-style presence predictor
  (Qureshi & Loh, MICRO'12): predicted misses skip the tag-check DRAM
  read and go straight to NVRAM, cutting the clean-read-miss cost from
  3 accesses to 2.  Mispredictions pay a verification penalty.
* :class:`BypassCache` — BEAR-style bandwidth-efficient insertion (Chou
  et al., ISCA'15): only a fraction of read misses allocate, saving fill
  and write-back bandwidth on streaming workloads at some hit-rate cost.
* :class:`NextLinePrefetchCache` — a miss-handler next-line prefetcher:
  each demand miss also fills the following line, trading NVRAM
  bandwidth for hits on sequential streams.

All three inherit the exact Figure-3 protocol for the paths they do not
modify, so comparisons against the Cascade Lake baseline are
apples-to-apples.

Each variant overrides the engine-level ``_apply_read`` hook of
:class:`~repro.cache.direct_mapped.DirectMappedCache`, so they run the
same one-sort closed-form batch engine as the baseline instead of
falling back to per-round processing: the predictor consumes the
engine's per-request miss mask, the bypass policy has its own segmented
closed form (:func:`repro.cache.engine.bypass_read_batch`), and the
prefetcher runs the demand pass then installs its candidates with
:func:`repro.cache.engine.prefetch_fill_batch`.  Random draws (predictor
correctness, insertion coins) are made once per batch in request order;
on a batch the segmenter splits (:class:`~repro.perf.segments.SplitBatch`),
the miss mask comes back in batch order and each part takes its own
requests' coins, so every stream is the one an unsplit batch draws.
"""

from __future__ import annotations

import numpy as np

from repro.cache import engine as _engine_ops
from repro.cache.direct_mapped import DirectMappedCache
from repro.errors import ConfigurationError
from repro.perf.counters import TagStats, Traffic


class MissPredictorCache(DirectMappedCache):
    """Direct-mapped cache with a presence predictor.

    On an LLC read predicted to miss, the IMC skips the tag-check DRAM
    read and launches the NVRAM fetch immediately (set metadata — the
    victim's dirty bit — is assumed tracked on-chip, as in MissMap).
    A predicted hit proceeds exactly like the baseline.  Mispredicted
    misses (actual hits) waste one NVRAM read before the DRAM copy is
    used.
    """

    def __init__(
        self,
        capacity: int,
        *,
        accuracy: float = 0.95,
        seed: int = 0,
        **kwargs,
    ) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ConfigurationError(f"accuracy must be in [0, 1], got {accuracy}")
        super().__init__(capacity, **kwargs)
        self.accuracy = accuracy
        self._rng = np.random.default_rng(seed)

    def _apply_read(
        self,
        lines: np.ndarray,
        seg: _engine_ops.Grouping,
        traffic: Traffic,
        tags: TagStats,
    ) -> None:
        counts, miss = _engine_ops.read_batch(
            lines, seg, self._tags, self._dirty, self._known_resident,
            want_misses=True,
        )
        hit = ~miss
        correct = self._rng.random(lines.size) < self.accuracy
        predicted_hit = np.where(correct, hit, miss)

        # Tag-check DRAM reads happen only on predicted hits, plus a
        # verification read when a predicted miss was actually a hit —
        # which also speculatively fetched from NVRAM for nothing.
        mispredicted_hit = hit & ~predicted_hit
        traffic.dram_reads += int(predicted_hit.sum())
        traffic.dram_reads += int(mispredicted_hit.sum())
        traffic.nvram_reads += int(mispredicted_hit.sum())

        # The miss handler proceeds as in the baseline (predicted hits
        # that actually missed already paid their tag check above).
        traffic.nvram_reads += counts.misses
        traffic.dram_writes += counts.misses
        traffic.nvram_writes += counts.dirty_misses
        tags.hits += counts.requests - counts.misses
        tags.clean_misses += counts.misses - counts.dirty_misses
        tags.dirty_misses += counts.dirty_misses


class BypassCache(DirectMappedCache):
    """Direct-mapped cache with probabilistic read-miss insertion.

    Read misses allocate with probability ``insert_probability``;
    bypassed misses are served straight from NVRAM after the tag check
    (2 accesses instead of 3) and leave the set's occupant in place.
    """

    def __init__(
        self,
        capacity: int,
        *,
        insert_probability: float = 0.1,
        seed: int = 0,
        **kwargs,
    ) -> None:
        if not 0.0 <= insert_probability <= 1.0:
            raise ConfigurationError(
                f"insert_probability must be in [0, 1], got {insert_probability}"
            )
        super().__init__(capacity, **kwargs)
        self.insert_probability = insert_probability
        self._rng = np.random.default_rng(seed)

    def _apply_read(
        self,
        lines: np.ndarray,
        seg: _engine_ops.Grouping,
        traffic: Traffic,
        tags: TagStats,
    ) -> None:
        draw = self._rng.random(lines.size) < self.insert_probability
        counts = _engine_ops.bypass_read_batch(
            lines, draw, seg, self._tags, self._dirty, self._known_resident
        )
        traffic.dram_reads += counts.requests  # every request still tag-checks
        traffic.nvram_reads += counts.misses  # demand fetch, allocated or not
        traffic.dram_writes += counts.allocations  # fills only for allocations
        traffic.nvram_writes += counts.dirty_evictions
        tags.hits += counts.requests - counts.misses
        tags.dirty_misses += counts.dirty_tagged
        tags.clean_misses += counts.misses - counts.dirty_tagged


class NextLinePrefetchCache(DirectMappedCache):
    """Direct-mapped cache whose miss handler prefetches the next line.

    Every demand read miss also fetches line+1 from NVRAM and installs
    it (unless already resident), paying the usual fill and possible
    dirty write-back for the prefetch victim.  The batch runs as a
    demand pass followed by a prefetch pass: candidates (successors of
    the demand misses) install in request order, later candidates
    winning, each skipped when it already matches the set's occupant.
    """

    def _apply_read(
        self,
        lines: np.ndarray,
        seg: _engine_ops.Grouping,
        traffic: Traffic,
        tags: TagStats,
    ) -> None:
        counts, miss = _engine_ops.read_batch(
            lines, seg, self._tags, self._dirty, self._known_resident,
            want_misses=True,
        )
        self._charge_read(counts, traffic, tags)
        if not counts.misses:
            return

        candidates = lines[miss] + 1
        candidates, pf_seg = self._segmenter.segment(candidates)
        fills = _engine_ops.prefetch_fill_batch(
            candidates, pf_seg, self._tags, self._dirty, self._known_resident
        )
        traffic.nvram_reads += fills.installs
        traffic.dram_writes += fills.installs
        traffic.nvram_writes += fills.dirty_evictions
