"""AutoTM executor: 1LM training with explicit tensor movement.

Runs the training schedule against a flat (app-direct) backend.  Every
tensor gets physical placement from the solver's plan: DRAM-resident
tensors live in a first-fit DRAM pool, NVRAM-resident tensors in the
NVRAM region, and stashed tensors get a DRAM slot while hot plus an
NVRAM slot across their forward-to-backward gap.  Movement is
synchronous, between kernels, using nontemporal stores — matching
AutoTM's design and reproducing Figure 10: NVRAM writes happen only in
the forward pass (stash-out), NVRAM reads only in the backward pass
(prefetch-back), and the total NVRAM traffic is roughly the stashed
bytes rather than the cache's amplified write-backs.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import obs
from repro.autotm.model import PlacementMode, PlacementPlan
from repro.config import PlatformConfig
from repro.errors import ConfigurationError, InvariantError
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
from repro.nn.ir import Op, OpKind, Tensor
from repro.nn.liveness import analyze_liveness
from repro.nn.planner import FirstFitArena
from repro.perf.sampler import CounterSampler


@dataclass
class AutoTMResult:
    """Outcome of one AutoTM training iteration."""

    plan: PlacementPlan
    records: List[KernelRecord] = field(default_factory=list)
    stash_bytes: int = 0
    restore_bytes: int = 0
    #: Counter trace sampled after every kernel and move (Figure 10).
    trace: object = None

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def traffic(self) -> Traffic:
        total = Traffic()
        for record in self.records:
            total += record.traffic
        return total


class _Addresser:
    """Physical line addresses for every tensor under an AutoTM plan."""

    def __init__(
        self,
        training: TrainingGraph,
        plan: PlacementPlan,
        platform: PlatformConfig,
        sample_stride: int,
    ) -> None:
        graph = training.graph
        line = platform.line_size
        alignment = max(1024, sample_stride * line)
        self.line_size = line
        self.sample_stride = sample_stride
        self.dram_lines = platform.socket.dram_capacity // line

        dram = FirstFitArena(alignment)
        nvram = FirstFitArena(alignment)
        num_ops = len(graph.ops)

        #: tensor -> (forward-phase offset, backward-phase offset, is_dram
        #: fwd, is_dram bwd, switch op index).  Non-stashed tensors have
        #: identical phases.
        self._slots: Dict[Tensor, tuple] = {}
        #: NVRAM parking slot per stashed tensor.
        self._stash_slots: Dict[Tensor, int] = {}

        for tensor in graph.weights:
            offset = dram.allocate(tensor.size_bytes, 0, num_ops - 1)
            self._slots[tensor] = (offset, offset, True, True, None)

        lives = {life.tensor: life for life in analyze_liveness(graph)}
        for tensor, life in lives.items():
            placement = plan.placements.get(tensor)
            mode = placement.mode if placement is not None else PlacementMode.DRAM
            if mode is PlacementMode.DRAM:
                offset = dram.allocate(tensor.size_bytes, life.start, life.end)
                self._slots[tensor] = (offset, offset, True, True, None)
            elif mode is PlacementMode.NVRAM:
                offset = nvram.allocate(tensor.size_bytes, life.start, life.end)
                self._slots[tensor] = (offset, offset, False, False, None)
            else:
                if placement is None:
                    raise InvariantError(
                        f"tensor {tensor.name!r} has stash mode but no placement"
                    )
                stash_after = placement.stash_after
                restore_before = placement.restore_before
                hot = dram.allocate(tensor.size_bytes, life.start, stash_after)
                cold = nvram.allocate(tensor.size_bytes, stash_after, restore_before)
                warm = dram.allocate(tensor.size_bytes, restore_before, life.end)
                self._slots[tensor] = (hot, warm, True, True, restore_before)
                self._stash_slots[tensor] = cold

        if dram.high_water > platform.socket.dram_capacity:
            raise ConfigurationError(
                f"AutoTM DRAM pool overflows the device: {dram.high_water} bytes"
            )
        self.nvram_base_line = self.dram_lines
        self.nvram_high_water_lines = nvram.high_water // line

    def _lines_for(self, offset_bytes: int, size_bytes: int, in_dram: bool) -> np.ndarray:
        base = 0 if in_dram else self.nvram_base_line
        first = base + offset_bytes // self.line_size
        count = -(-size_bytes // self.line_size)
        return first + np.arange(0, count, self.sample_stride, dtype=np.int64)

    def lines(self, tensor: Tensor, op_index: int) -> np.ndarray:
        """Current address of ``tensor`` when op ``op_index`` runs."""
        fwd, bwd, fwd_dram, bwd_dram, switch = self._slots[tensor]
        if switch is None or op_index < switch:
            return self._lines_for(fwd, tensor.size_bytes, fwd_dram)
        return self._lines_for(bwd, tensor.size_bytes, bwd_dram)

    def stash_lines(self, tensor: Tensor) -> np.ndarray:
        """The NVRAM slot a stashed tensor is parked in."""
        return self._lines_for(self._stash_slots[tensor], tensor.size_bytes, False)

    def total_lines(self) -> int:
        return self.nvram_base_line + max(1, self.nvram_high_water_lines)


def execute_autotm(
    training: TrainingGraph,
    plan: PlacementPlan,
    platform: PlatformConfig,
    *,
    threads: int = 24,
    sample_stride: int = 16,
) -> AutoTMResult:
    """Run one AutoTM training iteration in app-direct (1LM) mode."""
    graph = training.graph
    addresser = _Addresser(training, plan, platform, sample_stride)

    nvram_capacity_lines = platform.socket.nvram_capacity // platform.line_size
    if addresser.nvram_high_water_lines > nvram_capacity_lines:
        raise ConfigurationError("AutoTM NVRAM pool overflows the device")
    address_map = AddressMap.numa_preferred(
        addresser.dram_lines, max(1, nvram_capacity_lines)
    )
    backend = FlatBackend(platform, address_map)
    sampler = CounterSampler(backend.counters)

    ctx = AccessContext(threads=threads, pattern=Pattern.SEQUENTIAL)
    move_ctx = ctx
    cpu = platform.socket.cpu
    weight = sample_stride

    # Movement schedule: stash after op i / restore before op j.
    stash_at: Dict[int, List[Tensor]] = {}
    restore_at: Dict[int, List[Tensor]] = {}
    for tensor, placement in plan.placements.items():
        if placement.mode is PlacementMode.STASH:
            stash_at.setdefault(placement.stash_after, []).append(tensor)
            restore_at.setdefault(placement.restore_before, []).append(tensor)

    result = AutoTMResult(plan=plan)

    def move(src: np.ndarray, dst: np.ndarray, op: Op, label: str) -> None:
        tele = obs.get()
        start = backend.counters.time
        with contextlib.ExitStack() as stack:
            span = (
                stack.enter_context(
                    tele.span(
                        "autotm.move",
                        cat="autotm",
                        clock=lambda: backend.counters.time,
                        label=label,
                        anchor_op=op.name,
                    )
                )
                if tele.enabled
                else None
            )
            with backend.epoch(move_ctx) as epoch:
                backend.access(src, AccessKind.LLC_READ, move_ctx, weight=weight)
                # Nontemporal stores: no ownership read, straight write.
                backend.access(dst, AccessKind.LLC_WRITE, move_ctx, weight=weight)
            backend.counters.retire(
                int(epoch.traffic.demand_bytes * cpu.instructions_per_byte)
            )
            if span is not None:
                span.set(moved_bytes=epoch.traffic.demand_bytes)
        if tele.enabled:
            tele.counter(
                "repro_autotm_moved_bytes_total", "bytes moved by AutoTM stash/restore"
            ).inc(epoch.traffic.demand_bytes)
        result.records.append(
            KernelRecord(
                op=Op(name=label, kind=OpKind.MOVE),
                start=start,
                end=backend.counters.time,
                traffic=epoch.traffic,
                tags=epoch.tags,
                compute_seconds=0.0,
                memory_seconds=epoch.memory_seconds,
            )
        )
        sampler.sample(label=label)

    for index, op in enumerate(graph.ops):
        for tensor in restore_at.get(index, ()):  # prefetch back to DRAM
            result.restore_bytes += tensor.size_bytes
            move(
                addresser.stash_lines(tensor),
                addresser.lines(tensor, index),
                op,
                f"restore_{tensor.name}",
            )

        tele = obs.get()
        with contextlib.ExitStack() as stack:
            if tele.enabled:
                stack.enter_context(
                    tele.span(
                        "autotm.kernel",
                        cat="autotm",
                        clock=lambda: backend.counters.time,
                        op=op.name,
                        kind=op.kind.value,
                        stashes=len(stash_at.get(index, ())),
                        restores=len(restore_at.get(index, ())),
                    )
                )
            lines_of = functools.partial(addresser.lines, op_index=index)
            record = execute_op(op, lines_of, backend, ctx, cpu, weight)
        result.records.append(record)
        sampler.sample(label=op.name)

        for tensor in stash_at.get(index, ()):  # write out to NVRAM
            result.stash_bytes += tensor.size_bytes
            move(
                addresser.lines(tensor, index),
                addresser.stash_lines(tensor),
                op,
                f"stash_{tensor.name}",
            )

    result.trace = sampler.trace()
    return result
