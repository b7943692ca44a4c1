"""Trace replay: drive a storage trace through every memory configuration.

The replay engine closes the loop the paper's HPC workloads leave open:
it maps trace keys to physical block addresses, streams the trace in
:data:`repro.config.BATCH_LINES`-sized batches through a memory
backend, and reports the three numbers the hardware-vs-software
argument turns on — effective bandwidth, NVRAM write amplification,
and DRAM hit rate.

Two address placements, one per side of the argument:

* **Hardware models** (:data:`HARDWARE_MODELS`) see an *identity*
  placement — key ``k`` occupies block ``k`` — behind a
  :class:`~repro.memsys.backends.CachedBackend`.  The DRAM cache is the
  only thing standing between the workload and NVRAM, exactly the 2LM
  deployment model.
* **The software side** (:data:`SOFTWARE_MODEL`) is a
  :class:`~repro.memsys.backends.FlatBackend` over a profile-guided
  placement: key popularity (lines touched per key over the whole
  trace) ranks keys hottest-first into a DRAM-then-NVRAM
  :class:`~repro.memsys.topology.AddressMap`.  That is the
  software-managed alternative the paper advocates — the application
  (here, an omniscient profile) decides what lives in DRAM.

Both sides get the *same* platform: the paper's machine scaled so the
socket's DRAM is ``dram_fraction`` of the trace footprint — the
cache-exceeding regime where the case against hardware caches is
actually contested.  Scaling divides capacities and bandwidths together
(:meth:`repro.config.PlatformConfig.scaled`), so bandwidth ratios and
amplification are unchanged from the full-size machine.

Within a batch, fetch reads (gets plus put read-modify-write) issue
before writes (puts plus appends), pooled in one backend epoch so
read/write traffic overlaps as in a pipelined steady state.  When a
batch is all puts, the read and write passes share one frozen line
vector, so the per-model :class:`~repro.cache.engine.BatchSegmenter`
reuses a single grouping sort across both passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cache import (
    BypassCache,
    DirectMappedCache,
    MissPredictorCache,
    NextLinePrefetchCache,
    SectorCache,
    SetAssociativeCache,
)
from repro.config import BATCH_LINES, PAPER_PLATFORM, PlatformConfig
from repro.errors import ConfigurationError
from repro.memsys.backends import CachedBackend, FlatBackend
from repro.memsys.topology import AddressMap, Region
from repro.perf.counters import AccessContext, AccessKind, Pattern
from repro.perf.segments import positions
from repro.traces.format import OP_APPEND, OP_GET, Trace
from repro.units import CACHE_LINE, KiB, to_gb_per_s

#: Cache factories for the hardware-managed side: name → (capacity → model).
MODEL_FACTORIES: Dict[str, Callable[[int], object]] = {
    "direct_mapped": lambda cap: DirectMappedCache(cap),
    "write_around": lambda cap: DirectMappedCache(cap, insert_on_write_miss=False),
    "setassoc_lru": lambda cap: SetAssociativeCache(cap, ways=8),
    "sector": lambda cap: SectorCache(cap, sector_lines=32, footprint=4),
    "miss_predictor": lambda cap: MissPredictorCache(cap, accuracy=0.95, seed=0),
    "bypass": lambda cap: BypassCache(cap, insert_probability=0.1, seed=0),
    "prefetch": lambda cap: NextLinePrefetchCache(cap),
}

HARDWARE_MODELS: Tuple[str, ...] = tuple(sorted(MODEL_FACTORIES))

#: The software-managed (1LM, profile-placed) alternative.
SOFTWARE_MODEL = "software"

#: Every replayable configuration, hardware models first.
ALL_MODELS: Tuple[str, ...] = HARDWARE_MODELS + (SOFTWARE_MODEL,)

#: Alignment every cache geometry accepts: the 32-line sector (2 KiB)
#: is also a multiple of the 8-way set (512 B).
_CAPACITY_ALIGN = 2 * KiB

#: Largest platform scale factor replay will request.  Beyond this the
#: scaled LLC drops below one cache line and the platform refuses to
#: build; tiny (test-sized) traces clamp here, trading the exact
#: ``dram_fraction`` for a buildable machine — both sides of the
#: comparison still share the identical platform.
_MAX_SCALE = 1 << 18


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one trace × model replay."""

    model: str
    family: str
    seconds: float
    effective_gbps: float
    hit_rate: float
    nvram_write_amp: float
    nvram_reads: int
    nvram_writes: int
    dram_reads: int
    dram_writes: int
    demand_reads: int
    demand_writes: int

    def to_row(self) -> Dict[str, object]:
        """Plain-data row for experiment payloads and reports."""
        return {
            "model": self.model,
            "family": self.family,
            "seconds": self.seconds,
            "effective_gbps": self.effective_gbps,
            "hit_rate": self.hit_rate,
            "nvram_write_amp": self.nvram_write_amp,
            "nvram_reads": self.nvram_reads,
            "nvram_writes": self.nvram_writes,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "demand_reads": self.demand_reads,
            "demand_writes": self.demand_writes,
        }


def platform_for(trace: Trace, dram_fraction: float = 0.25) -> PlatformConfig:
    """The paper's machine scaled to the cache-exceeding regime.

    The socket's DRAM lands at ``dram_fraction`` of the trace footprint
    (floored at 64 KiB so tiny test traces still scale), keeping every
    bandwidth ratio of the full-size platform.
    """
    if not 0.0 < dram_fraction <= 1.0:
        raise ConfigurationError(
            f"dram_fraction must be in (0, 1], got {dram_fraction}"
        )
    footprint_bytes = trace.footprint_lines * CACHE_LINE
    target = max(64 * KiB, footprint_bytes * dram_fraction)
    factor = min(PAPER_PLATFORM.socket.dram_capacity / target, _MAX_SCALE)
    return PAPER_PLATFORM.scaled(factor)


def _cache_capacity(platform: PlatformConfig) -> int:
    """Socket DRAM rounded down to a geometry every model accepts."""
    capacity = platform.socket.dram_capacity
    capacity -= capacity % _CAPACITY_ALIGN
    if capacity < _CAPACITY_ALIGN:
        raise ConfigurationError(
            f"scaled DRAM ({platform.socket.dram_capacity} B) is below one "
            f"{_CAPACITY_ALIGN} B sector; lower the scale factor"
        )
    return capacity


def identity_placement(trace: Trace) -> np.ndarray:
    """Key ``k`` → base line ``k * slot_lines`` (the hardware view)."""
    slot = trace.header.slot_lines
    return np.arange(trace.header.key_space, dtype=np.int64) * slot


def profiled_placement(trace: Trace) -> np.ndarray:
    """Popularity-ranked placement: hottest keys at the lowest lines.

    This is the omniscient software manager: it knows the whole trace's
    per-key line counts and packs the hottest keys into the DRAM region
    of the flat address map.  Stable sort keeps ties in key order, so
    the placement is deterministic.
    """
    popularity = trace.key_popularity()
    order = np.argsort(-popularity, kind="stable")  # hottest first
    slot = trace.header.slot_lines
    base = np.empty(trace.header.key_space, dtype=np.int64)
    base[order] = np.arange(trace.header.key_space, dtype=np.int64) * slot
    return base


def _flat_address_map(trace: Trace, platform: PlatformConfig) -> AddressMap:
    """DRAM-then-NVRAM map covering exactly the trace footprint."""
    total_lines = trace.footprint_lines
    dram_lines = min(_cache_capacity(platform) // CACHE_LINE, total_lines)
    if dram_lines <= 0:
        return AddressMap.nvram_only(total_lines)
    if dram_lines >= total_lines:
        return AddressMap([Region("dram", 0, total_lines, "dram")])
    return AddressMap.numa_preferred(dram_lines, total_lines - dram_lines)


def _expand_lines(
    keys: np.ndarray, sizes: np.ndarray, key_base: np.ndarray
) -> np.ndarray:
    """Per-op (key, size) rows → one frozen line address per cache line.

    The op starting at window position ``start`` puts line ``base + j``
    at position ``start + j``, so each line is its op's ``base - start``
    plus its own position.
    """
    starts = np.cumsum(sizes) - sizes  # exclusive prefix sum
    lines = np.repeat(key_base[keys] - starts, sizes)
    lines += positions(lines.size)
    lines.flags.writeable = False
    return lines


def make_backend(trace: Trace, model: str, platform: Optional[PlatformConfig] = None):
    """Build the memory backend for one trace × model pair."""
    if platform is None:
        platform = platform_for(trace)
    if model == SOFTWARE_MODEL:
        return FlatBackend(platform, _flat_address_map(trace, platform))
    try:
        factory = MODEL_FACTORIES[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown replay model {model!r}; known: {', '.join(ALL_MODELS)}"
        ) from None
    return CachedBackend(platform, factory(_cache_capacity(platform)))


def replay_trace(
    trace: Trace,
    model: str,
    *,
    platform: Optional[PlatformConfig] = None,
    threads: int = 4,
    batch_lines: int = BATCH_LINES,
) -> ReplayResult:
    """Replay one trace through one memory configuration.

    Streams the trace in ``batch_lines``-bounded windows.  Per window,
    fetch reads (gets plus the put read-modify-write) go first, then
    writes (puts plus appends), pooled in a single epoch.
    """
    if platform is None:
        platform = platform_for(trace)
    backend = make_backend(trace, model, platform)
    key_base = (
        profiled_placement(trace)
        if model == SOFTWARE_MODEL
        else identity_placement(trace)
    )
    ctx = AccessContext(threads=threads, pattern=Pattern.RANDOM)

    for ops, keys, sizes in trace.batches(batch_lines):
        reads = ops != OP_APPEND  # gets and put-RMW fetch first
        writes = ops != OP_GET  # puts and appends write back
        if bool(reads.all()) and bool(writes.all()):
            # All puts: one shared frozen vector, segmented once for both passes.
            line_reads = line_writes = _expand_lines(keys, sizes, key_base)
        else:
            line_reads = _expand_lines(keys[reads], sizes[reads], key_base)
            line_writes = _expand_lines(keys[writes], sizes[writes], key_base)
        with backend.epoch(ctx):
            if line_reads.size:
                backend.access(line_reads, AccessKind.LLC_READ)
            if line_writes.size:
                backend.access(line_writes, AccessKind.LLC_WRITE)

    counters = backend.counters
    traffic = counters.traffic
    seconds = counters.time
    demand_bytes = (traffic.demand_reads + traffic.demand_writes) * CACHE_LINE
    # Report at full-machine scale: the platform divides bandwidths by
    # scale_factor, so achieved bytes/s multiply back (same convention
    # as fig2/fig5/graphcommon).
    scale = platform.scale_factor
    return ReplayResult(
        model=model,
        family=trace.header.family,
        seconds=seconds,
        effective_gbps=to_gb_per_s(demand_bytes / seconds * scale) if seconds else 0.0,
        hit_rate=counters.tags.hit_rate if counters.tags.checks else 0.0,
        nvram_write_amp=(
            traffic.nvram_writes / traffic.demand_writes
            if traffic.demand_writes
            else 0.0
        ),
        nvram_reads=traffic.nvram_reads,
        nvram_writes=traffic.nvram_writes,
        dram_reads=traffic.dram_reads,
        dram_writes=traffic.dram_writes,
        demand_reads=traffic.demand_reads,
        demand_writes=traffic.demand_writes,
    )


def replay_all(
    trace: Trace,
    models: Optional[Iterable[str]] = None,
    *,
    threads: int = 4,
    batch_lines: int = BATCH_LINES,
) -> Dict[str, ReplayResult]:
    """Replay one trace through every configuration (or a chosen subset)."""
    platform = platform_for(trace)
    return {
        model: replay_trace(
            trace, model, platform=platform, threads=threads, batch_lines=batch_lines
        )
        for model in (ALL_MODELS if models is None else tuple(models))
    }
