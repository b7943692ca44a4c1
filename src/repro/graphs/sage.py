"""System configurations for the graph studies, including Sage mode.

Three ways the paper (Sections VI-B and VII-A2) runs graph kernels:

* :func:`setup_2lm` — Galois on 2LM: both sockets' DRAM (384 GB) caches
  6 TB of NVRAM; the graph and all properties live behind the cache.
* :func:`setup_numa` — the baseline-traffic configuration: 1LM with
  NVRAM as extra NUMA nodes and a NUMA-preferred policy, so allocations
  fill DRAM first and spill to NVRAM.  With page migration disabled this
  exposes the workload's *true demand accesses* (Figure 8a).
* :func:`setup_sage` — Sage-style semi-asymmetric mode: the read-only
  CSR arrays live in NVRAM, the mutable auxiliary property arrays in
  DRAM, so mutation never generates NVRAM writes.

Each returns ``(backend, layout)`` ready for a :class:`GraphRuntime`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cache import DirectMappedCache
from repro.config import PlatformConfig
from repro.graphs.csr import CSRGraph
from repro.graphs.runtime import GraphLayout
from repro.memsys.backends import CachedBackend, FlatBackend
from repro.memsys.topology import AddressMap, Region
from repro.units import CACHE_LINE

#: Property arrays the four kernels allocate, with element sizes.
KERNEL_PROPERTIES: Dict[str, int] = {
    "bfs_dist": 8,
    "cc_label": 8,
    "kcore_degree": 8,
    "pr_rank": 8,
    "pr_next": 8,
}


def _layout_with_properties(
    csr: CSRGraph, properties: Dict[str, int]
) -> Tuple[GraphLayout, int]:
    """Layout with the graph arrays first; returns (layout, graph lines)."""
    layout = GraphLayout(csr)
    graph_lines = layout.total_lines
    for name, elem_bytes in properties.items():
        layout.add_property(name, elem_bytes)
    return layout, graph_lines


def setup_2lm(
    platform: PlatformConfig,
    csr: CSRGraph,
    properties: Dict[str, int] = KERNEL_PROPERTIES,
    sockets: int = 2,
) -> Tuple[CachedBackend, GraphLayout]:
    """Galois in memory mode: all data behind the DRAM cache."""
    layout, _ = _layout_with_properties(csr, properties)
    cache = DirectMappedCache(sockets * platform.socket.dram_capacity)
    return CachedBackend(platform, cache), layout


def setup_numa(
    platform: PlatformConfig,
    csr: CSRGraph,
    properties: Dict[str, int] = KERNEL_PROPERTIES,
    sockets: int = 2,
) -> Tuple[FlatBackend, GraphLayout]:
    """1LM with NVRAM as NUMA nodes: DRAM-first allocation, no cache."""
    layout, _ = _layout_with_properties(csr, properties)
    dram_lines = sockets * platform.socket.dram_capacity // CACHE_LINE
    nvram_lines = sockets * platform.socket.nvram_capacity // CACHE_LINE
    total_needed = layout.total_lines
    if total_needed > dram_lines + nvram_lines:
        raise ValueError("graph does not fit in DRAM + NVRAM")
    if total_needed <= dram_lines:
        address_map = AddressMap.numa_preferred(total_needed, 1)
    else:
        address_map = AddressMap.numa_preferred(dram_lines, total_needed - dram_lines)
    return FlatBackend(platform, address_map), layout


def setup_sage(
    platform: PlatformConfig,
    csr: CSRGraph,
    properties: Dict[str, int] = KERNEL_PROPERTIES,
) -> Tuple[FlatBackend, GraphLayout]:
    """Sage semi-asymmetric mode: read-only graph in NVRAM, state in DRAM.

    Mutation only ever touches the DRAM-resident auxiliary arrays, so
    NVRAM sees pure read traffic — the design principle of Sage
    (Section VII-A2).
    """
    layout, graph_lines = _layout_with_properties(csr, properties)
    aux_lines = layout.total_lines - graph_lines
    address_map = AddressMap(
        [
            Region("graph", 0, graph_lines, "nvram"),
            Region("aux", graph_lines, max(1, aux_lines), "dram"),
        ]
    )
    return FlatBackend(platform, address_map), layout
