"""Offset-assigning memory planner (the ngraph heap).

ngraph "allocates a single buffer for the entire network" and assigns
every transient tensor an offset within it (Section V-B, Figure 5d).
We reproduce that with a first-fit interval allocator: tensors whose
live ranges overlap get disjoint address ranges; freed regions are
reused by later tensors — the "fold back" that produces the bursts of
DRAM-cache hits at the start of the forward and backward passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.ir import Graph, Tensor
from repro.nn.liveness import TensorLife, analyze_liveness


@dataclass
class MemoryPlan:
    """Result of planning: tensor offsets within one transient buffer.

    ``weight_offsets`` places persistent tensors (weights, weight
    gradients, optimizer outputs) in their own region appended after the
    transient buffer.
    """

    graph: Graph
    offsets: Dict[Tensor, int]
    buffer_bytes: int
    weight_offsets: Dict[Tensor, int]
    weight_bytes: int
    lives: List[TensorLife] = field(default_factory=list)
    alignment: int = 64

    @property
    def total_bytes(self) -> int:
        return self.buffer_bytes + self.weight_bytes

    def offset_of(self, tensor: Tensor) -> int:
        """Offset of any tensor within the combined heap."""
        if tensor.weight:
            return self.buffer_bytes + self.weight_offsets[tensor]
        return self.offsets[tensor]

    def extent_of(self, tensor: Tensor) -> Tuple[int, int]:
        """(start, end) byte extent of a tensor within the heap."""
        offset = self.offset_of(tensor)
        return offset, offset + tensor.size_bytes


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class FirstFitArena:
    """First-fit interval allocator over one address range.

    ``allocate(size, start, end)`` returns the lowest aligned offset
    whose byte range is free for the whole [start, end] interval.  Used
    by the ngraph-style planner and by AutoTM's DRAM and NVRAM pools.

    Placed extents are kept in growable int64 columns.  A fit masks the
    extents whose intervals overlap the request, sorts them by offset,
    and takes the running maximum of their ends: the gap in front of
    each blocker opens where every lower blocker has ended, and the
    first gap wide enough wins (else the space above them all).
    """

    def __init__(self, alignment: int = 64) -> None:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ConfigurationError("alignment must be a positive power of two")
        self.alignment = alignment
        #: Allocated extents, one column each: offset, offset + aligned
        #: size, interval start, interval end.
        self._extents = np.empty((4, 64), dtype=np.int64)
        self._count = 0
        self.high_water = 0

    def allocate(self, size: int, start: int, end: int) -> int:
        if size <= 0:
            raise ConfigurationError("allocation size must be positive")
        if end < start:
            raise ConfigurationError("interval end precedes start")
        size = _align(size, self.alignment)
        offsets, tops, starts, ends = self._extents[:, : self._count]
        blocking = (starts <= end) & (start <= ends)
        lows = offsets[blocking]
        # Stable (timsort): extents are mostly placed in rising offset
        # order, and ties on offset cannot change the fit.
        order = np.argsort(lows, kind="stable")
        gaps = np.concatenate(([0], np.maximum.accumulate(tops[blocking][order])))
        fits = np.flatnonzero(gaps[:-1] + size <= lows[order])
        offset = int(gaps[fits[0]] if fits.size else gaps[-1])
        if self._count == self._extents.shape[1]:
            self._extents = np.concatenate([self._extents, np.empty_like(self._extents)], axis=1)
        self._extents[:, self._count] = (offset, offset + size, start, end)
        self._count += 1
        self.high_water = max(self.high_water, offset + size)
        return offset


def plan_memory(graph: Graph, alignment: int = 64) -> MemoryPlan:
    """First-fit decreasing-lifetime offset assignment.

    Tensors are placed in schedule order (producers first), each at the
    lowest aligned offset whose address range is free for the tensor's
    whole live interval — the same greedy policy ngraph's memory manager
    uses, and the policy that produces Figure 5d's characteristic shape.
    """
    lives = analyze_liveness(graph)
    lives_sorted = sorted(lives, key=lambda life: (life.start, -life.tensor.size_bytes))

    arena = FirstFitArena(alignment)
    offsets: Dict[Tensor, int] = {}
    for life in lives_sorted:
        offsets[life.tensor] = arena.allocate(
            life.tensor.size_bytes, life.start, life.end
        )
    buffer_end = arena.high_water

    weight_offsets: Dict[Tensor, int] = {}
    cursor = 0
    for tensor in graph.weights:
        weight_offsets[tensor] = cursor
        cursor += _align(tensor.size_bytes, alignment)

    return MemoryPlan(
        graph=graph,
        offsets=offsets,
        buffer_bytes=_align(buffer_end, alignment),
        weight_offsets=weight_offsets,
        weight_bytes=cursor,
        lives=lives,
        alignment=alignment,
    )
