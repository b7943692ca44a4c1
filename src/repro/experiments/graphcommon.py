"""Shared plumbing for the graph experiments (Figures 7-9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.experiments.platform import graph_platform_for
from repro.graphs import (
    CSRGraph,
    GraphRuntime,
    bfs,
    connected_components,
    kcore,
    pagerank_push,
)
from repro.graphs.sage import setup_2lm, setup_numa, setup_sage
from repro.perf.counters import TagStats, Traffic
from repro.perf.sampler import CounterSampler
from repro.perf.trace import Trace
from repro.units import CACHE_LINE, GB, to_gb_per_s

#: PageRank rounds (paper: 100; scaled runs converge in fewer).
PR_ROUNDS = 25
PR_ROUNDS_QUICK = 6

#: The paper's k-core parameter.
KCORE_K = 100

#: Edge-stride sampling for traffic emission.
EDGE_STRIDE = 4
EDGE_STRIDE_QUICK = 8

SETUPS: Dict[str, Callable] = {
    "2lm": setup_2lm,
    "numa": setup_numa,
    "sage": setup_sage,
}


@dataclass
class GraphRun:
    """Outcome of one (kernel, graph, mode) execution."""

    kernel: str
    mode: str
    seconds: float
    traffic: Traffic
    tags: TagStats
    trace: Trace
    rounds: int
    #: Platform scale factor, for hardware-equivalent reporting.
    scale: float

    def bandwidth_gbps(self, field: str) -> float:
        """Average hardware-equivalent GB/s for one device stream."""
        if not self.seconds:
            return 0.0
        lines = getattr(self.traffic, field)
        return to_gb_per_s(lines * CACHE_LINE / self.seconds * self.scale)

    @property
    def total_moved_gb(self) -> float:
        """Total data moved, hardware-equivalent GB (Figure 8's metric)."""
        return self.traffic.total_bytes * self.scale / GB

    @property
    def demand_gb(self) -> float:
        return self.traffic.demand_bytes * self.scale / GB


def run_graph_kernel(
    kernel: str,
    csr: CSRGraph,
    mode: str = "2lm",
    quick: bool = False,
    pr_rounds: Optional[int] = None,
) -> GraphRun:
    """Run one lonestar kernel under one system configuration."""
    platform = graph_platform_for(quick)
    backend, layout = SETUPS[mode](platform, csr)
    sampler = CounterSampler(backend.counters)
    runtime = GraphRuntime(
        backend,
        layout,
        threads=96,
        sockets=2,
        edge_stride=EDGE_STRIDE_QUICK if quick else EDGE_STRIDE,
        sampler=sampler,
    )

    start = backend.counters.snapshot()
    if kernel == "bfs":
        outcome = bfs(csr, runtime=runtime)
        rounds = outcome.levels
    elif kernel == "cc":
        outcome = connected_components(csr, runtime=runtime)
        rounds = outcome.rounds
    elif kernel == "kcore":
        outcome = kcore(csr, k=KCORE_K, runtime=runtime)
        rounds = outcome.rounds
    elif kernel == "pr":
        if pr_rounds is None:
            pr_rounds = PR_ROUNDS_QUICK if quick else PR_ROUNDS
        outcome = pagerank_push(csr, rounds=pr_rounds, tolerance=0.0, runtime=runtime)
        rounds = outcome.rounds
    else:
        raise KeyError(f"unknown kernel {kernel!r}; pick bfs, cc, kcore or pr")

    delta = backend.counters.snapshot().delta(start)
    return GraphRun(
        kernel=kernel,
        mode=mode,
        seconds=delta.time,
        traffic=delta.traffic,
        tags=delta.tags,
        trace=sampler.trace(),
        rounds=rounds,
        scale=platform.scale_factor,
    )


KERNELS = ("bfs", "cc", "kcore", "pr")
