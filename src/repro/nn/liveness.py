"""Tensor liveness analysis over a schedule.

A transient tensor is live from the op that produces it to its last
consumer.  The paper's Figure 5d is exactly this analysis drawn over
time: live intervals accumulate through the forward pass (activations
saved for backward) and drain through the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.nn.ir import Graph, Op, Tensor


@dataclass(frozen=True)
class TensorLife:
    """Live interval of one transient tensor, in op indices (inclusive)."""

    tensor: Tensor
    start: int
    end: int

    def overlaps(self, other: "TensorLife") -> bool:
        return self.start <= other.end and other.start <= self.end

    def live_at(self, index: int) -> bool:
        return self.start <= index <= self.end


def analyze_liveness(graph: Graph) -> List[TensorLife]:
    """Live intervals for every transient (non-weight) tensor.

    Weights, weight gradients, and optimizer outputs are persistent and
    excluded; they live in a separate region of the heap.
    """
    op_index: Dict[Op, int] = {op: i for i, op in enumerate(graph.ops)}
    first: Dict[Tensor, int] = {}
    last: Dict[Tensor, int] = {}

    for i, op in enumerate(graph.ops):
        for tensor in op.outputs:
            if tensor.weight:
                continue
            first.setdefault(tensor, i)
            last[tensor] = i
        for tensor in op.inputs:
            if tensor.weight:
                continue
            if tensor not in first:
                # Graph input without a producer op: live from the start.
                first[tensor] = 0
            last[tensor] = i

    return [
        TensorLife(tensor=t, start=first[t], end=last[t]) for t in first
    ]


def live_bytes_series(lives: List[TensorLife], num_ops: int) -> List[int]:
    """Total live transient bytes at each op index (Figure 5d's envelope)."""
    deltas = [0] * (num_ops + 1)
    for life in lives:
        deltas[life.start] += life.tensor.size_bytes
        if life.end + 1 <= num_ops:
            deltas[life.end + 1] -= life.tensor.size_bytes
    series = []
    running = 0
    for i in range(num_ops):
        running += deltas[i]
        series.append(running)
    return series
