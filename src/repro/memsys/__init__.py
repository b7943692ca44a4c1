"""Memory-system substrate: devices, timing, and backends.

This package simulates the memory side of the paper's test platform:
DRAM and Optane DIMMs behind integrated memory controllers, and the two
system configurations the paper compares — 1LM (app-direct / flat) and
2LM (DRAM cache in front of NVRAM).  The uncore counters the backends
charge, used for every measurement in the paper, are imported from
:mod:`repro.perf.counters`.
"""

from repro.memsys.dram import DRAMDevice
from repro.memsys.nvram import NVRAMDevice
from repro.memsys.timing import TimingModel
from repro.memsys.backends import CachedBackend, FlatBackend, MemoryBackend
from repro.memsys.topology import AddressMap, Region

__all__ = [
    "AddressMap",
    "CachedBackend",
    "DRAMDevice",
    "FlatBackend",
    "MemoryBackend",
    "NVRAMDevice",
    "Region",
    "TimingModel",
]
