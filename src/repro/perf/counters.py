"""Uncore performance counters and the traffic/tag event types they count.

The paper's entire measurement methodology (Section III-B) rests on the
IMC uncore counters: DRAM CAS reads/writes, NVRAM read/write requests,
and the Cascade Lake 2LM tag events (tag hit, tag miss clean, tag miss
dirty).  This module defines those events and small value types used
throughout the simulator:

* :class:`Traffic` — line-granularity access counts per device.
* :class:`TagStats` — DRAM-cache tag-check outcomes.
* :class:`UncoreCounters` — a monotonically increasing counter bank that
  experiments sample, exactly as the paper samples the hardware PMU.

This module lives in the observability layer (``repro.perf``): it is
pure measurement vocabulary with no simulation logic, and the perf
sampler/trace exporters consume it.  It is the one import path for these
types; no other package re-exports them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.units import CACHE_LINE


class AccessKind(enum.Enum):
    """Request kinds at the IMC boundary (Section IV-A).

    * ``LLC_READ`` — a load or RFO miss at the LLC requesting a line.
    * ``LLC_WRITE`` — a dirty-line eviction or a nontemporal store.
    """

    LLC_READ = "llc_read"
    LLC_WRITE = "llc_write"


def as_lines(lines: object) -> np.ndarray:
    """Coerce an address batch to a contiguous 1-D int64 array."""
    array = np.ascontiguousarray(lines, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"line batch must be 1-D, got shape {array.shape}")
    if array.size and array.min() < 0:
        raise ValueError("line addresses must be non-negative")
    return array


class Pattern(enum.Enum):
    """Spatial access pattern of a benchmark kernel (Section III-B)."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


class StoreType(enum.Enum):
    """Store flavour: standard (RFO, cached) or nontemporal (streaming)."""

    STANDARD = "standard"
    NONTEMPORAL = "nontemporal"


@dataclass(frozen=True)
class AccessContext:
    """Execution context the device bandwidth models depend on.

    The paper varies thread count, pattern, and access granularity in its
    microbenchmarks; device bandwidth curves (Figure 2) are functions of
    all three.
    """

    threads: int = 1
    pattern: Pattern = Pattern.SEQUENTIAL
    granularity: int = CACHE_LINE
    sockets: int = 1
    #: Distinct sequential streams interleaved at the memory controller
    #: (e.g. a kernel touching 4 tensors plus the write-back stream).
    #: Drives the NVRAM write-combining model.
    streams: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.granularity < CACHE_LINE:
            raise ValueError(
                f"granularity must be >= one {CACHE_LINE}B line, got {self.granularity}"
            )
        if self.sockets < 1:
            raise ValueError(f"sockets must be >= 1, got {self.sockets}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")


@dataclass
class Traffic:
    """Line-granularity memory traffic, as counted by the IMC.

    All fields are in 64-byte transactions, matching DRAM CAS counts and
    the NVRAM request counters.  ``demand_reads``/``demand_writes`` are
    the LLC-side requests that *caused* the traffic; the ratio of total
    device accesses to demand accesses is the paper's *access
    amplification* metric (Section IV-B).
    """

    dram_reads: int = 0
    dram_writes: int = 0
    nvram_reads: int = 0
    nvram_writes: int = 0
    demand_reads: int = 0
    demand_writes: int = 0

    # The arithmetic below is unrolled field by field: it runs for every
    # access batch and kernel the simulator records, and reflecting on
    # ``dataclasses.fields`` costs several times more.

    def copy(self) -> "Traffic":
        return Traffic(
            self.dram_reads,
            self.dram_writes,
            self.nvram_reads,
            self.nvram_writes,
            self.demand_reads,
            self.demand_writes,
        )

    def sub(self, other: "Traffic") -> "Traffic":
        """Per-field difference ``self - other`` (counter deltas)."""
        return Traffic(
            self.dram_reads - other.dram_reads,
            self.dram_writes - other.dram_writes,
            self.nvram_reads - other.nvram_reads,
            self.nvram_writes - other.nvram_writes,
            self.demand_reads - other.demand_reads,
            self.demand_writes - other.demand_writes,
        )

    def __add__(self, other: "Traffic") -> "Traffic":
        return Traffic(
            self.dram_reads + other.dram_reads,
            self.dram_writes + other.dram_writes,
            self.nvram_reads + other.nvram_reads,
            self.nvram_writes + other.nvram_writes,
            self.demand_reads + other.demand_reads,
            self.demand_writes + other.demand_writes,
        )

    def __iadd__(self, other: "Traffic") -> "Traffic":
        self.add(other)
        return self

    def add(self, other: "Traffic", weight: int = 1) -> None:
        """Add ``other`` times ``weight`` in place.

        An access charges its epoch this way, weighted by its sampling
        stride: simulating every ``weight``-th line and multiplying the
        traffic reproduces the full workload's statistics (set conflicts
        are residue-class symmetric in a direct-mapped cache).
        """
        self.dram_reads += other.dram_reads * weight
        self.dram_writes += other.dram_writes * weight
        self.nvram_reads += other.nvram_reads * weight
        self.nvram_writes += other.nvram_writes * weight
        self.demand_reads += other.demand_reads * weight
        self.demand_writes += other.demand_writes * weight

    @property
    def dram_read_bytes(self) -> int:
        return self.dram_reads * CACHE_LINE

    @property
    def dram_write_bytes(self) -> int:
        return self.dram_writes * CACHE_LINE

    @property
    def nvram_read_bytes(self) -> int:
        return self.nvram_reads * CACHE_LINE

    @property
    def nvram_write_bytes(self) -> int:
        return self.nvram_writes * CACHE_LINE

    @property
    def total_accesses(self) -> int:
        return self.dram_reads + self.dram_writes + self.nvram_reads + self.nvram_writes

    @property
    def total_bytes(self) -> int:
        return self.total_accesses * CACHE_LINE

    @property
    def demand_accesses(self) -> int:
        return self.demand_reads + self.demand_writes

    @property
    def demand_bytes(self) -> int:
        return self.demand_accesses * CACHE_LINE

    @property
    def amplification(self) -> float:
        """Memory accesses per demand access (Table I's bottom row)."""
        if not self.demand_accesses:
            return 0.0
        return self.total_accesses / self.demand_accesses


@dataclass
class TagStats:
    """Outcomes of 2LM tag checks, as counted by the Cascade Lake IMC.

    ``ddo_writes`` counts LLC writes forwarded straight to DRAM by the
    Dirty Data Optimization (Section IV-C); those never perform a tag
    check, so they are not part of hit/miss totals.
    """

    hits: int = 0
    clean_misses: int = 0
    dirty_misses: int = 0
    ddo_writes: int = 0

    # Unrolled like Traffic's arithmetic, for the same reason.

    def copy(self) -> "TagStats":
        return TagStats(self.hits, self.clean_misses, self.dirty_misses, self.ddo_writes)

    def sub(self, other: "TagStats") -> "TagStats":
        """Per-field difference ``self - other`` (counter deltas)."""
        return TagStats(
            self.hits - other.hits,
            self.clean_misses - other.clean_misses,
            self.dirty_misses - other.dirty_misses,
            self.ddo_writes - other.ddo_writes,
        )

    def __add__(self, other: "TagStats") -> "TagStats":
        return TagStats(
            self.hits + other.hits,
            self.clean_misses + other.clean_misses,
            self.dirty_misses + other.dirty_misses,
            self.ddo_writes + other.ddo_writes,
        )

    def __iadd__(self, other: "TagStats") -> "TagStats":
        self.add(other)
        return self

    def add(self, other: "TagStats", weight: int = 1) -> None:
        """Add ``other`` times ``weight`` in place (see :meth:`Traffic.add`)."""
        self.hits += other.hits * weight
        self.clean_misses += other.clean_misses * weight
        self.dirty_misses += other.dirty_misses * weight
        self.ddo_writes += other.ddo_writes * weight

    @property
    def checks(self) -> int:
        return self.hits + self.clean_misses + self.dirty_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.checks if self.checks else 0.0

    @property
    def misses(self) -> int:
        return self.clean_misses + self.dirty_misses


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable point-in-time reading of an :class:`UncoreCounters` bank."""

    time: float
    traffic: Traffic
    tags: TagStats
    instructions: int

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Counter increments between ``earlier`` and this snapshot."""
        return CounterSnapshot(
            time=self.time - earlier.time,
            traffic=self.traffic.sub(earlier.traffic),
            tags=self.tags.sub(earlier.tags),
            instructions=self.instructions - earlier.instructions,
        )


class UncoreCounters:
    """A bank of monotonically increasing counters plus a virtual clock.

    Experiments read this the way the paper reads the PMU: take a
    snapshot, run a phase, take another snapshot, and difference them.
    """

    def __init__(self) -> None:
        self.traffic = Traffic()
        self.tags = TagStats()
        self.instructions = 0
        self.time = 0.0

    def record_traffic(self, traffic: Traffic) -> None:
        self.traffic += traffic

    def record_tags(self, tags: TagStats) -> None:
        self.tags += tags

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self.time += seconds

    def retire(self, instructions: int) -> None:
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += instructions

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(
            time=self.time,
            traffic=self.traffic.copy(),
            tags=self.tags.copy(),
            instructions=self.instructions,
        )
