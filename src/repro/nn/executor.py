"""Training-iteration executor: streams kernel tensor traffic line by line.

:func:`execute_iteration` runs the planned schedule op by op, once to
warm the backend and once recorded.  Each kernel:

* reads every input tensor (LLC reads),
* issues Read-For-Ownership reads for its outputs (ngraph kernels use
  standard, write-allocating stores),
* writes every output tensor back (LLC writes, DDO-eligible because the
  RFO just checked the tag),
* overlaps a roofline compute time derived from the op's flop count.

:func:`execute_op` is that kernel body, and the AutoTM executors
(:mod:`repro.autotm.executor`, :mod:`repro.autotm.dma`) run it too, with
their own addressers.  Each tensor goes to the backend as one line
vector; the backend cuts it into host batches.

Tensor addresses come from the memory plan, so the DRAM-cache behaviour
(aliasing, dirty temporaries, fold-back hit bursts — Section V-B) falls
out of the real address stream rather than being assumed.

**Stride sampling.**  Simulating every line of a hundreds-of-MB heap is
wasteful; ``sample_stride=N`` simulates every N-th line and weights the
recorded traffic by N.  For a direct-mapped cache this is exact in
distribution: addresses in different residue classes mod N map to
disjoint set classes with identical conflict structure, so the sampled
class is an unbiased 1/N census of the full stream (tensor offsets are
aligned to ``N * CACHE_LINE`` by the planner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.memsys.backends import MemoryBackend
from repro.perf.counters import (
    AccessContext,
    AccessKind,
    Pattern,
    TagStats,
    Traffic,
)
from repro.nn.ir import COMPUTE_BOUND_KINDS, Graph, Op, OpKind, Tensor
from repro.nn.planner import MemoryPlan
from repro.perf.sampler import CounterSampler
from repro.units import CACHE_LINE

#: Fraction of peak flops achieved by tuned compute-bound kernels.
COMPUTE_EFFICIENCY = 0.6
#: Fraction of peak flops achieved by memory-bound elementwise kernels.
ELEMENTWISE_EFFICIENCY = 0.3


@dataclass
class KernelRecord:
    """Measured execution of one op."""

    op: Op
    start: float
    end: float
    traffic: Traffic
    tags: TagStats
    compute_seconds: float
    memory_seconds: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionResult:
    """The records of one measured training iteration, in schedule order."""

    graph: Graph
    records: List[KernelRecord] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def traffic(self) -> Traffic:
        total = Traffic()
        for record in self.records:
            total += record.traffic
        return total

    @property
    def tags(self) -> TagStats:
        total = TagStats()
        for record in self.records:
            total += record.tags
        return total


class TensorAddresser:
    """Maps planned tensors to (sampled) line-address arrays."""

    def __init__(self, plan: MemoryPlan, sample_stride: int) -> None:
        if sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")
        if plan.alignment % (sample_stride * CACHE_LINE):
            raise ConfigurationError(
                f"plan alignment {plan.alignment} must be a multiple of "
                f"sample_stride * CACHE_LINE = {sample_stride * CACHE_LINE}"
            )
        self.plan = plan
        self.sample_stride = sample_stride
        self._cache: Dict[Tensor, np.ndarray] = {}

    def lines(self, tensor: Tensor) -> np.ndarray:
        """Sampled line addresses covering ``tensor`` (read-only).

        The array is cached and frozen, so the cache models may reuse
        one segmentation across every pass over the same tensor (the
        RFO and the write-back of an output, and both iterations).
        """
        cached = self._cache.get(tensor)
        if cached is not None:
            return cached
        offset = self.plan.offset_of(tensor)
        first = offset // CACHE_LINE
        num_lines = -(-tensor.size_bytes // CACHE_LINE)
        lines = first + np.arange(0, num_lines, self.sample_stride, dtype=np.int64)
        lines.flags.writeable = False
        self._cache[tensor] = lines
        return lines


def compute_time(op: Op, peak_flops: float) -> float:
    """Roofline compute time for one kernel."""
    if not op.flops:
        return 0.0
    efficiency = (
        COMPUTE_EFFICIENCY if op.kind in COMPUTE_BOUND_KINDS else ELEMENTWISE_EFFICIENCY
    )
    return op.flops / (peak_flops * efficiency)


def execute_iteration(
    plan: MemoryPlan,
    backend: MemoryBackend,
    *,
    sample_stride: int = 16,
    sampler: Optional[CounterSampler] = None,
) -> ExecutionResult:
    """Warm ``backend`` with one training iteration, then run and record one.

    Only the second pass is recorded and sampled (one ``sampler`` point
    per op), so its numbers are steady-state, as the paper's are.  Both
    passes share one :class:`TensorAddresser`, so the second hands every
    cache model the frozen line vectors it grouped in the first.
    """
    cpu = backend.timing.platform.socket.cpu
    addresser = TensorAddresser(plan, sample_stride)
    contexts: Dict[int, AccessContext] = {}  # one per distinct stream count
    kernels = []
    for op in plan.graph.ops:
        # Streams at the memory controller: one per tensor read,
        # two per output (RFO + write-back).
        streams = max(1, len(op.inputs) + 2 * len(op.outputs))
        if streams not in contexts:
            contexts[streams] = AccessContext(
                threads=cpu.cores, pattern=Pattern.SEQUENTIAL, streams=streams
            )
        kernels.append((op, contexts[streams]))

    for op, ctx in kernels:  # warm-up, unrecorded
        _run_op(op, addresser, backend, ctx, cpu, sample_stride)
    if sampler is not None:
        sampler.discard()
    result = ExecutionResult(graph=plan.graph)
    for op, ctx in kernels:
        result.records.append(_run_op(op, addresser, backend, ctx, cpu, sample_stride))
        if sampler is not None:
            sampler.sample(label=op.name)
    return result


def _run_op(op, addresser, backend, ctx, cpu, weight) -> KernelRecord:
    tele = obs.get()
    if tele.enabled:
        with tele.span(
            "nn.kernel",
            cat="nn",
            clock=lambda: backend.counters.time,
            op=op.name,
            kind=op.kind.value,
        ):
            return execute_op(op, addresser.lines, backend, ctx, cpu, weight)
    return execute_op(op, addresser.lines, backend, ctx, cpu, weight)


def execute_op(
    op: Op,
    lines_of: Callable[[Tensor], np.ndarray],
    backend: MemoryBackend,
    ctx: AccessContext,
    cpu,
    weight: int,
) -> KernelRecord:
    """Run one kernel in its own epoch and record it.

    ``lines_of`` maps a tensor to its (sampled) line addresses, each
    weighted by ``weight``; ``cpu`` supplies the peak flops and the
    instructions retired per flop and per demand byte.
    """
    start = backend.counters.time
    with backend.epoch(ctx) as epoch:
        if op.kind is not OpKind.PARAMETER:
            for tensor in op.inputs:
                backend.access(lines_of(tensor), AccessKind.LLC_READ, ctx, weight=weight)
            if op.kind is OpKind.SGD_UPDATE:
                # In-place weight update: the read above doubles as the
                # ownership read; write the weight back.
                backend.access(lines_of(op.inputs[0]), AccessKind.LLC_WRITE, ctx, weight=weight)
            for tensor in op.outputs:
                # Standard stores write-allocate: RFO first, write-back after.
                lines = lines_of(tensor)
                backend.access(lines, AccessKind.LLC_READ, ctx, weight=weight)
                backend.access(lines, AccessKind.LLC_WRITE, ctx, weight=weight)
        epoch.add_compute(compute_time(op, cpu.peak_flops))
    instructions = int(op.flops * cpu.instructions_per_flop) + int(
        epoch.traffic.demand_bytes * cpu.instructions_per_byte
    )
    backend.counters.retire(instructions)
    return KernelRecord(
        op=op,
        start=start,
        end=backend.counters.time,
        traffic=epoch.traffic,
        tags=epoch.tags,
        compute_seconds=epoch.compute_seconds,
        memory_seconds=epoch.memory_seconds,
    )
