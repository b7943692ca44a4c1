"""Asynchronous tensor movement on a DMA copy engine (Section VII-B).

The paper's closing argument: software management works, but it burns
CPU cores on synchronous copies because "the DMA copy engines in current
systems are designed for I/O data movement", and future hardware should
offer asynchronous DRAM<->NVRAM movement.  This module quantifies that
proposal: the same AutoTM placement runs with moves issued to a modelled
DMA engine that overlaps kernel execution.

Model:

* One DMA engine with a FIFO queue; each move occupies it for
  ``bytes / min(engine_bandwidth, nvram side bandwidth)`` seconds.
* Stashes are enqueued right after the producing kernel; restores are
  enqueued ``lookahead`` ops ahead of their consumer (a prefetch
  distance).
* A kernel that needs a tensor whose restore has not completed stalls
  until it has — the only serialization left.
* Moves do not contend with kernels for DRAM (kernels are the DRAM
  customers; the engine's reads/writes of DRAM are absorbed in its
  bandwidth figure), matching the paper's framing of the proposal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.autotm.executor import _Addresser
from repro.autotm.model import PlacementMode, PlacementPlan
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.memsys.backends import FlatBackend
from repro.perf.counters import (
    AccessContext,
    AccessKind,
    Pattern,
    Traffic,
)
from repro.memsys.topology import AddressMap
from repro.nn.autodiff import TrainingGraph
from repro.nn.executor import KernelRecord, execute_op
from repro.nn.ir import Tensor
from repro.units import CACHE_LINE


@dataclass
class DMAEngineConfig:
    """A copy engine suited to memory-to-memory movement."""

    #: Peak engine throughput, bytes/s; the effective rate is also
    #: capped by the NVRAM side of each transfer.
    bandwidth: float = 30e9
    #: Restores are enqueued this many ops before their consumer.
    lookahead: int = 16


@dataclass
class AsyncAutoTMResult:
    """Outcome of one DMA-overlapped AutoTM iteration."""

    plan: PlacementPlan
    records: List[KernelRecord] = field(default_factory=list)
    stash_bytes: int = 0
    restore_bytes: int = 0
    #: Seconds kernels spent waiting for unfinished restores.
    stall_seconds: float = 0.0
    #: Seconds the DMA engine was busy.
    dma_busy_seconds: float = 0.0
    #: Device traffic generated by the DMA engine's copies.
    move_traffic: Traffic = field(default_factory=Traffic)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records) + self.stall_seconds

    @property
    def traffic(self) -> Traffic:
        total = Traffic()
        for record in self.records:
            total += record.traffic
        total += self.move_traffic
        return total


class _DMAEngine:
    """FIFO copy engine over virtual time."""

    def __init__(self, config: DMAEngineConfig, platform: PlatformConfig) -> None:
        scale = platform.scale_factor
        self.config = config
        self._free_at = 0.0
        self._bandwidth = config.bandwidth / scale
        socket = platform.socket
        self._to_nvram = min(self._bandwidth, socket.nvram_write_bandwidth)
        self._from_nvram = min(self._bandwidth, socket.nvram_read_bandwidth)
        self.busy_seconds = 0.0

    def submit(self, nbytes: int, now: float, to_nvram: bool) -> float:
        """Enqueue a copy; returns its completion time."""
        rate = self._to_nvram if to_nvram else self._from_nvram
        start = max(now, self._free_at)
        duration = nbytes / rate
        self._free_at = start + duration
        self.busy_seconds += duration
        return self._free_at


def execute_autotm_async(
    training: TrainingGraph,
    plan: PlacementPlan,
    platform: PlatformConfig,
    *,
    engine: Optional[DMAEngineConfig] = None,
    threads: int = 24,
    sample_stride: int = 16,
) -> AsyncAutoTMResult:
    """Run one AutoTM iteration with DMA-overlapped tensor movement."""
    engine_config = engine or DMAEngineConfig()
    if engine_config.lookahead < 1:
        raise ConfigurationError("lookahead must be >= 1")
    graph = training.graph
    addresser = _Addresser(training, plan, platform, sample_stride)
    nvram_capacity_lines = platform.socket.nvram_capacity // CACHE_LINE
    address_map = AddressMap.numa_preferred(
        addresser.dram_lines, max(1, nvram_capacity_lines)
    )
    backend = FlatBackend(platform, address_map)
    ctx = AccessContext(threads=threads, pattern=Pattern.SEQUENTIAL)
    cpu = platform.socket.cpu
    dma = _DMAEngine(engine_config, platform)

    # Movement schedule.
    stash_at: Dict[int, List[Tensor]] = {}
    restore_at: Dict[int, List[Tensor]] = {}
    restore_target: Dict[Tensor, int] = {}
    ready_at: Dict[Tensor, float] = {}
    restored: set = set()
    for tensor, placement in plan.placements.items():
        if placement.mode is PlacementMode.STASH:
            stash_at.setdefault(placement.stash_after, []).append(tensor)
            issue_index = max(0, placement.restore_before - engine_config.lookahead)
            # Never issue the restore before the stash completes.
            issue_index = max(issue_index, placement.stash_after + 1)
            restore_at.setdefault(issue_index, []).append(tensor)
            restore_target[tensor] = placement.restore_before

    result = AsyncAutoTMResult(plan=plan)

    def account_move(tensor: Tensor, index: int, to_nvram: bool) -> None:
        """Record a move's device traffic (time is handled by the DMA).

        Moves run between kernels, outside any epoch, so each access
        charges the counter bank at once and leaves the clock alone; the
        move's traffic is the bank's delta.
        """
        if to_nvram:
            src = addresser.lines(tensor, index)
            dst = addresser.stash_lines(tensor)
        else:
            src = addresser.stash_lines(tensor)
            dst = addresser.lines(tensor, restore_target[tensor])
        before = backend.counters.traffic.copy()
        for lines, kind in ((src, AccessKind.LLC_READ), (dst, AccessKind.LLC_WRITE)):
            backend.access(lines, kind, weight=sample_stride)
        result.move_traffic += backend.counters.traffic.sub(before)

    for index, op in enumerate(graph.ops):
        now = backend.counters.time

        for tensor in restore_at.get(index, ()):  # issue prefetches
            result.restore_bytes += tensor.size_bytes
            ready_at[tensor] = dma.submit(tensor.size_bytes, now, to_nvram=False)
            restored.add(tensor)
            account_move(tensor, index, to_nvram=False)

        # Stall if any input's restore is still in flight.
        needed = [t for t in op.inputs if t in restored]
        wait_until = max((ready_at[t] for t in needed), default=now)
        if wait_until > now:
            stall = wait_until - now
            result.stall_seconds += stall
            backend.counters.advance(stall)

        lines_of = functools.partial(addresser.lines, op_index=index)
        result.records.append(execute_op(op, lines_of, backend, ctx, cpu, sample_stride))

        for tensor in stash_at.get(index, ()):  # stash-outs run in background
            result.stash_bytes += tensor.size_bytes
            dma.submit(tensor.size_bytes, backend.counters.time, to_nvram=True)
            account_move(tensor, index, to_nvram=True)

    result.dma_busy_seconds = dma.busy_seconds
    return result
