"""Memory-system substrate: devices, counters, timing, and backends.

This package simulates the memory side of the paper's test platform:
DRAM and Optane DIMMs behind integrated memory controllers, the uncore
performance counters used for every measurement in the paper, and the
two system configurations the paper compares — 1LM (app-direct / flat)
and 2LM (DRAM cache in front of NVRAM).
"""

from repro.perf.counters import (
    AccessContext,
    AccessKind,
    CounterSnapshot,
    Pattern,
    StoreType,
    TagStats,
    Traffic,
    UncoreCounters,
    as_lines,
)
from repro.memsys.dram import DRAMDevice
from repro.memsys.nvram import NVRAMDevice
from repro.memsys.timing import TimingModel
from repro.memsys.backends import CachedBackend, FlatBackend, MemoryBackend
from repro.memsys.topology import AddressMap, Region

__all__ = [
    "AccessContext",
    "AccessKind",
    "AddressMap",
    "as_lines",
    "CachedBackend",
    "CounterSnapshot",
    "DRAMDevice",
    "FlatBackend",
    "MemoryBackend",
    "NVRAMDevice",
    "Pattern",
    "Region",
    "StoreType",
    "TagStats",
    "TimingModel",
    "Traffic",
    "UncoreCounters",
]
