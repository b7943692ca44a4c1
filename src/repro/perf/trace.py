"""Derived time-series over counter samples.

Turns a sequence of counter deltas into the series the paper plots:
per-device bandwidth (GB/s), tag-event rates, hit rate, and MIPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.perf.counters import TagStats, Traffic
from repro.units import CACHE_LINE

#: Traffic fields plottable as bandwidth series.
BANDWIDTH_FIELDS = ("dram_reads", "dram_writes", "nvram_reads", "nvram_writes")


@dataclass(frozen=True)
class TracePoint:
    """One sampling interval: counter deltas over [start, end]."""

    start: float
    end: float
    traffic: Traffic
    tags: TagStats
    instructions: int
    label: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def midpoint(self) -> float:
        return (self.start + self.end) / 2

    def bandwidth(self, field: str) -> float:
        """Bytes/s moved on one device stream during this interval."""
        if field not in BANDWIDTH_FIELDS:
            raise ValueError(f"unknown bandwidth field {field!r}")
        if not self.duration:
            return 0.0
        return getattr(self.traffic, field) * CACHE_LINE / self.duration

    @property
    def mips(self) -> float:
        """Millions of instructions retired per second."""
        if not self.duration:
            return 0.0
        return self.instructions / self.duration / 1e6


class Trace:
    """An ordered collection of :class:`TracePoint` samples."""

    def __init__(self, points: Sequence[TracePoint]) -> None:
        self.points: List[TracePoint] = list(points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    @property
    def times(self) -> np.ndarray:
        """Midpoint time of each sample."""
        return np.array([p.midpoint for p in self.points])

    def bandwidth_series(self, field: str) -> np.ndarray:
        """Bandwidth (bytes/s) per sample for one device stream."""
        return np.array([p.bandwidth(field) for p in self.points])

    def tag_rate_series(self, event: str) -> np.ndarray:
        """Tag events per second: 'hits', 'clean_misses' or 'dirty_misses'."""
        if event not in ("hits", "clean_misses", "dirty_misses", "ddo_writes"):
            raise ValueError(f"unknown tag event {event!r}")
        return np.array(
            [
                getattr(p.tags, event) / p.duration if p.duration else 0.0
                for p in self.points
            ]
        )

    def mips_series(self) -> np.ndarray:
        return np.array([p.mips for p in self.points])

    @property
    def duration(self) -> float:
        if not self.points:
            return 0.0
        return self.points[-1].end - self.points[0].start
