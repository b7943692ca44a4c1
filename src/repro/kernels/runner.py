"""Drives microbenchmark kernels through a memory backend.

Translates a :class:`~repro.kernels.bench.KernelSpec` into the LLC
request stream the IMC would see (Section IV-A's request taxonomy) and
accounts traffic, tag events, virtual time, and effective bandwidth —
the quantities the paper's Figures 2 and 4 report.

The CPU is modelled only where it shapes IMC-visible traffic.  For the
buffer sizes the paper studies (tens to hundreds of GB against a 33 MB
LLC) every fresh load misses the LLC, so two effects remain: a
*standard* store to a non-resident line first issues a
Read-For-Ownership (an extra LLC read), and dirtied lines are written
back *later*, once roughly an LLC's worth of newer data has streamed
through — the temporal gap that makes the Dirty Data Optimization
observable (Section IV-C).  :class:`WritebackQueue` models that delay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro import obs
from repro.config import BATCH_LINES
from repro.kernels.bench import Kernel, KernelSpec
from repro.kernels.patterns import access_blocks
from repro.memsys.backends import MemoryBackend
from repro.perf.counters import AccessContext, AccessKind, StoreType, TagStats, Traffic
from repro.units import CACHE_LINE, to_gb_per_s


class WritebackQueue:
    """FIFO of dirtied lines awaiting eviction from the LLC.

    ``push`` enqueues a batch of freshly dirtied lines and returns the
    batches that the incoming data displaces, once the backlog exceeds
    ``capacity_lines``; ``drain`` flushes the rest (e.g. at the end of a
    benchmark, or on an explicit flush).
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_lines = capacity_lines
        self._pending: deque[np.ndarray] = deque()
        self._pending_lines = 0

    def __len__(self) -> int:
        return self._pending_lines

    def push(self, lines: np.ndarray) -> List[np.ndarray]:
        """Enqueue dirtied lines; return batches evicted by the pressure."""
        self._pending.append(lines)
        self._pending_lines += int(lines.size)
        evicted: List[np.ndarray] = []
        while self._pending_lines > self.capacity_lines and self._pending:
            batch = self._pending.popleft()
            self._pending_lines -= int(batch.size)
            evicted.append(batch)
        return evicted

    def drain(self) -> Iterator[np.ndarray]:
        """Flush all pending write-backs in FIFO order."""
        while self._pending:
            batch = self._pending.popleft()
            self._pending_lines -= int(batch.size)
            yield batch


@dataclass
class BenchmarkResult:
    """Aggregate outcome of one benchmark run."""

    spec: KernelSpec
    traffic: Traffic
    tags: TagStats
    seconds: float
    demand_bytes: int

    @property
    def effective_bandwidth(self) -> float:
        """Application-visible bytes/s: data touched over wall-clock time.

        Matches the paper's "effective" bars (Section IV-A): array size
        times iterations divided by elapsed time.
        """
        if not self.seconds:
            return 0.0
        return self.demand_bytes / self.seconds

    @property
    def effective_gb_per_s(self) -> float:
        return to_gb_per_s(self.effective_bandwidth)

    def bandwidth_gb_per_s(self, field: str) -> float:
        """Per-device bandwidth in GB/s, e.g. ``bandwidth_gb_per_s('nvram_reads')``."""
        lines = getattr(self.traffic, field)
        if not self.seconds:
            return 0.0
        return to_gb_per_s(lines * CACHE_LINE / self.seconds)


def run_kernel(
    backend: MemoryBackend,
    spec: KernelSpec,
    num_lines: int,
    *,
    start_line: int = 0,
    iterations: int = 1,
    batch_lines: int = BATCH_LINES,
) -> BenchmarkResult:
    """Run one kernel over a ``num_lines`` buffer at ``start_line``.

    The buffer is iterated ``iterations`` times; each pass touches every
    line exactly once in the order given by the spec's pattern.

    ``batch_lines`` is the runner's own request-interleaving unit, not a
    host batch: the standard-store write-back queue and the mixed
    kernel's load/store split advance one such block at a time.  Its
    default is the backend's host-batch cap, so each block is also one
    backend batch.
    """
    tele = obs.get()
    if tele.enabled:
        with tele.span(
            "kernels.run",
            cat="kernels",
            clock=lambda: backend.counters.time,
            kernel=spec.kernel.value,
            pattern=spec.pattern.value,
            granularity=spec.granularity,
            threads=spec.threads,
            num_lines=num_lines,
            iterations=iterations,
        ):
            return _run_kernel(
                backend, spec, num_lines,
                start_line=start_line, iterations=iterations, batch_lines=batch_lines,
            )
    return _run_kernel(
        backend, spec, num_lines,
        start_line=start_line, iterations=iterations, batch_lines=batch_lines,
    )


def _run_kernel(
    backend: MemoryBackend,
    spec: KernelSpec,
    num_lines: int,
    *,
    start_line: int,
    iterations: int,
    batch_lines: int,
) -> BenchmarkResult:
    if num_lines <= 0:
        raise ValueError(f"buffer must have at least one line, got {num_lines}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    ctx = AccessContext(
        threads=spec.threads,
        pattern=spec.pattern,
        granularity=spec.granularity,
        sockets=spec.sockets,
    )
    cpu = backend.timing.platform.socket.cpu
    llc_lines = cpu.llc_capacity // CACHE_LINE
    # access_blocks returns a shared read-only cache entry; the request
    # pipeline below only ever slices it, so the zero-offset case can
    # use it directly.  A non-zero offset allocates a fresh array.
    order = access_blocks(num_lines, spec.pattern, spec.granularity)
    if start_line:
        order = start_line + order

    totals = Traffic()
    tags = TagStats()
    seconds = 0.0
    delayed_writes = spec.writes and spec.store_type is StoreType.STANDARD
    mix_rng = np.random.default_rng(0xB411) if spec.kernel is Kernel.MIXED else None

    for _ in range(iterations):
        queue = WritebackQueue(llc_lines) if delayed_writes else None
        # Each pass over the buffer is one overlapped epoch: demand
        # reads, write-backs, and device traffic pipeline against each
        # other, as they do in the hardware's steady state.
        with backend.epoch(ctx) as epoch:
            for begin in range(0, order.size, batch_lines):
                batch = order[begin : begin + batch_lines]
                if mix_rng is not None:
                    # Disjoint load/store partition at the chosen ratio.
                    loads = mix_rng.random(batch.size) < spec.read_fraction
                    if loads.any():
                        backend.access(batch[loads], AccessKind.LLC_READ)
                    stores = batch[~loads]
                    if stores.size:
                        if queue is None:
                            backend.access(stores, AccessKind.LLC_WRITE)
                        else:
                            backend.access(stores, AccessKind.LLC_READ)  # RFO
                            for evicted in queue.push(stores):
                                backend.access(evicted, AccessKind.LLC_WRITE)
                    continue
                if spec.reads:
                    backend.access(batch, AccessKind.LLC_READ)
                elif delayed_writes:
                    # Standard store to a non-resident line: RFO first.
                    backend.access(batch, AccessKind.LLC_READ)
                if spec.writes:
                    if queue is None:
                        backend.access(batch, AccessKind.LLC_WRITE)
                    else:
                        for evicted in queue.push(batch):
                            backend.access(evicted, AccessKind.LLC_WRITE)
            if queue is not None:
                for evicted in queue.drain():
                    backend.access(evicted, AccessKind.LLC_WRITE)
        totals += epoch.traffic
        tags += epoch.tags
        seconds += epoch.seconds

    demand_bytes = iterations * num_lines * CACHE_LINE
    backend.counters.retire(int(demand_bytes * cpu.instructions_per_byte))
    return BenchmarkResult(
        spec=spec,
        traffic=totals,
        tags=tags,
        seconds=seconds,
        demand_bytes=demand_bytes,
    )
