"""Memory-system backends: the 1LM (flat) and 2LM (cached) configurations.

A backend is the boundary workloads talk to: it accepts LLC request
vectors of any length, produces exact device traffic, charges it to the
uncore counters, and advances the virtual clock using the timing model.
It is also the one place host batching happens: ``access`` cuts a vector
longer than :data:`repro.config.BATCH_LINES` into consecutive batches,
so no workload executor chunks its own streams.

* :class:`FlatBackend` — 1LM / app-direct.  Each line address is backed
  by DRAM or NVRAM according to an :class:`~repro.memsys.topology.AddressMap`
  (e.g. NUMA-preferred allocation); requests go straight to the device.
* :class:`CachedBackend` — 2LM / memory mode.  All lines are NVRAM-backed
  and a DRAM cache model intercepts every request.  NVRAM bandwidth is
  derated by ``nvram_efficiency`` to model the miss handler's occupancy
  overhead, calibrated so a 100 %-miss stream achieves the ~70 % of raw
  device bandwidth the paper measures (Figure 4 vs Figure 2).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Iterator, List, Optional, Protocol

import numpy as np

from repro import obs
from repro.config import BATCH_LINES, PlatformConfig
from repro.perf.counters import (
    AccessContext,
    AccessKind,
    TagStats,
    Traffic,
    UncoreCounters,
    as_lines,
)
from repro.memsys.timing import TimingModel
from repro.memsys.topology import AddressMap


class _CacheLike(Protocol):
    """Structural stand-in for :class:`repro.cache.base.CacheModel`.

    The model validates its input: :class:`CachedBackend` passes each
    batch of at most :data:`~repro.config.BATCH_LINES` lines straight
    through (the caller's array itself, so segmentation reuse keyed on
    its identity still applies), and ``llc_read``/``llc_write`` coerce it
    with :func:`~repro.perf.counters.as_lines`, raising ``ValueError`` on
    a negative or non-1-D batch.
    """

    def llc_read(self, lines: np.ndarray) -> "tuple[Traffic, TagStats]": ...

    def llc_write(self, lines: np.ndarray) -> "tuple[Traffic, TagStats]": ...

#: Calibrated fraction of raw NVRAM bandwidth achievable through the 2LM
#: miss handler (Section IV-D: 23 GB/s of ~32 GB/s read, 8 of ~11 write).
MISS_HANDLER_EFFICIENCY = 0.72

#: (attribute, metric name, help) rows for the per-access counters, so
#: the hot accounting loop never rebuilds metric-name strings per batch.
_TRAFFIC_COUNTER_SPECS = tuple(
    (f.name, f"repro_{f.name}_total", f"IMC {f.name.replace('_', ' ')} (lines)")
    for f in fields(Traffic)
)
_TAG_COUNTER_SPECS = tuple(
    (f.name, f"repro_tag_{f.name}_total", f"2LM tag {f.name.replace('_', ' ')}")
    for f in fields(TagStats)
)


class _CounterHandles:
    """Per-backend cache of resolved telemetry counter handles.

    Valid for exactly one telemetry handle (compared by identity in
    :meth:`_EpochSupport._account`); each slot resolves lazily on its
    first nonzero increment, preserving the registry invariant that a
    counter exists only once something was recorded to it.
    """

    __slots__ = ("tele", "traffic", "tags")

    def __init__(self, tele) -> None:
        self.tele = tele
        self.traffic: List[Optional[obs.Counter]] = [None] * len(_TRAFFIC_COUNTER_SPECS)
        self.tags: List[Optional[obs.Counter]] = [None] * len(_TAG_COUNTER_SPECS)


@dataclass(frozen=True)
class AccessReport:
    """Result of one backend access (summed over its host batches)."""

    traffic: Traffic
    tags: TagStats
    seconds: float


class Epoch:
    """A window of overlapped execution.

    Within an epoch, accesses contribute traffic but no time; when the
    epoch closes, elapsed time is computed from the *pooled* traffic, so
    independent constraints (demand reads vs writes, DRAM vs NVRAM)
    overlap as they would in a pipelined steady state.  ``add_compute``
    registers serial compute work; the epoch takes the roofline maximum
    of compute and memory time.
    """

    def __init__(self, ctx: AccessContext) -> None:
        self.ctx = ctx
        self.compute_seconds = 0.0
        self.memory_seconds = 0.0
        self.seconds = 0.0
        self.traffic = Traffic()
        self.tags = TagStats()

    def add_compute(self, seconds: float) -> None:
        """Register compute time that overlaps the epoch's memory traffic."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.compute_seconds += seconds


class MemoryBackend(Protocol):
    """Common interface of the 1LM and 2LM configurations."""

    counters: UncoreCounters
    timing: TimingModel

    def access(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool = True,
        weight: int = 1,
    ) -> AccessReport:
        """Process a vector of LLC requests and account for them.

        ``weight`` multiplies the recorded traffic: stride-sampling
        executors simulate every N-th line and weight the result by N.
        """
        ...

    def epoch(self, ctx: AccessContext) -> "contextlib.AbstractContextManager[Epoch]":
        """Open an overlapped-execution window (see :class:`Epoch`)."""
        ...


class _EpochSupport:
    """Shared epoch bookkeeping and telemetry for the concrete backends."""

    counters: UncoreCounters
    timing: TimingModel

    def __init__(self) -> None:
        self._active_epoch: Optional[Epoch] = None
        self._counter_handles: Optional[_CounterHandles] = None

    @contextlib.contextmanager
    def epoch(self, ctx: AccessContext) -> Iterator[Epoch]:
        if self._active_epoch is not None:
            raise RuntimeError("epochs do not nest")
        tele = obs.get()
        with contextlib.ExitStack() as stack:
            span = (
                stack.enter_context(
                    tele.span(
                        "memsys.epoch", cat="memsys", clock=lambda: self.counters.time
                    )
                )
                if tele.enabled
                else None
            )
            epoch = Epoch(ctx)
            self._active_epoch = epoch
            try:
                yield epoch
            finally:
                self._active_epoch = None
            breakdown = self.timing.breakdown(epoch.traffic, ctx)
            epoch.memory_seconds = breakdown.elapsed
            if self.timing.cache_managed:
                # Demand misses resolve through the multi-access miss
                # handler; those stalls are latency the core pipeline
                # cannot hide behind compute (Figure 5a: MIPS collapses
                # during high-miss phases), so NVRAM service adds to the
                # compute time instead of overlapping it.
                epoch.seconds = max(
                    breakdown.elapsed,
                    epoch.compute_seconds + breakdown.nvram_device,
                )
            else:
                epoch.seconds = max(epoch.memory_seconds, epoch.compute_seconds)
            self.counters.advance(epoch.seconds)
            if span is not None:
                span.set(
                    accesses=epoch.traffic.total_accesses,
                    demand_accesses=epoch.traffic.demand_accesses,
                    amplification=epoch.traffic.amplification,
                    seconds=epoch.seconds,
                )
                self._record_epoch_metrics(tele, epoch)

    def _record_epoch_metrics(self, tele, epoch: Epoch) -> None:
        tele.histogram(
            "repro_epoch_amplification",
            obs.AMPLIFICATION_BUCKETS,
            "per-epoch accesses per demand access",
        ).observe(epoch.traffic.amplification)
        tele.histogram(
            "repro_epoch_accesses",
            obs.SIZE_BUCKETS,
            "device accesses pooled per epoch",
        ).observe(epoch.traffic.total_accesses)
        if epoch.tags.checks:
            tele.histogram(
                "repro_epoch_hit_rate",
                obs.RATIO_BUCKETS,
                "per-epoch DRAM-cache tag hit rate",
            ).observe(epoch.tags.hit_rate)
        tele.gauge(
            "repro_tag_hit_rate", "cumulative DRAM-cache tag hit rate"
        ).set(self.counters.tags.hit_rate)

    def access(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool = True,
        weight: int = 1,
    ) -> AccessReport:
        """Process ``lines`` in host batches of at most ``BATCH_LINES``.

        A vector within the cap is one batch, the array itself.  A longer
        one is validated whole, then cut into consecutive ``BATCH_LINES``
        slices, each accounted as its own batch (its own traffic scaling,
        clock advance, ``memsys.access`` span and batch-size observation);
        the report is their sum.
        """
        if np.size(lines) <= BATCH_LINES:
            return self._access_batch(lines, kind, ctx, advance, weight)
        whole = as_lines(lines)
        reports = [
            self._access_batch(whole[begin : begin + BATCH_LINES], kind, ctx, advance, weight)
            for begin in range(0, whole.size, BATCH_LINES)
        ]
        return AccessReport(
            traffic=sum((report.traffic for report in reports), Traffic()),
            tags=sum((report.tags for report in reports), TagStats()),
            seconds=sum(report.seconds for report in reports),
        )

    def _access_batch(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool,
        weight: int,
    ) -> AccessReport:
        tele = obs.get()
        if not tele.enabled:
            return self._access(lines, kind, ctx, advance, weight)
        with tele.span(
            "memsys.access", cat="memsys", clock=lambda: self.counters.time
        ) as span:
            report = self._access(lines, kind, ctx, advance, weight)
            span.set(
                kind=kind.value,
                lines=int(np.size(lines)),
                weight=weight,
                dram=report.traffic.dram_reads + report.traffic.dram_writes,
                nvram=report.traffic.nvram_reads + report.traffic.nvram_writes,
            )
        tele.histogram(
            "repro_access_batch_lines",
            obs.SIZE_BUCKETS,
            "LLC request lines per host batch",
        ).observe(int(np.size(lines)))
        return report

    def _access(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool,
        weight: int,
    ) -> AccessReport:
        raise NotImplementedError

    def _account(self, traffic: Traffic, tags: TagStats, ctx: AccessContext, advance: bool) -> float:
        """Record one access's traffic; return its standalone time."""
        self.counters.record_traffic(traffic)
        if tags.checks or tags.ddo_writes:
            self.counters.record_tags(tags)
        tele = obs.get()
        if tele.enabled:
            handles = self._counter_handles
            if handles is None or handles.tele is not tele:
                handles = self._counter_handles = _CounterHandles(tele)
            for index, (attr, metric, help_text) in enumerate(_TRAFFIC_COUNTER_SPECS):
                value = getattr(traffic, attr)
                if value:
                    counter = handles.traffic[index]
                    if counter is None:
                        counter = handles.traffic[index] = tele.counter(metric, help_text)
                    counter.inc(value)
            for index, (attr, metric, help_text) in enumerate(_TAG_COUNTER_SPECS):
                value = getattr(tags, attr)
                if value:
                    counter = handles.tags[index]
                    if counter is None:
                        counter = handles.tags[index] = tele.counter(metric, help_text)
                    counter.inc(value)
        if self._active_epoch is not None:
            self._active_epoch.traffic += traffic
            self._active_epoch.tags += tags
            return 0.0
        seconds = self.timing.elapsed(traffic, ctx)
        if advance:
            self.counters.advance(seconds)
        return seconds


class FlatBackend(_EpochSupport):
    """1LM / app-direct: no cache, requests routed by physical address."""

    def __init__(
        self,
        platform: PlatformConfig,
        address_map: AddressMap,
        counters: Optional[UncoreCounters] = None,
    ) -> None:
        super().__init__()
        self.platform = platform
        self.address_map = address_map
        self.counters = counters or UncoreCounters()
        self.timing = TimingModel(platform, nvram_efficiency=1.0)

    def _access(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool,
        weight: int,
    ) -> AccessReport:
        lines = as_lines(lines)
        is_dram = self.address_map.classify(lines)
        n_dram = int(is_dram.sum())
        n_nvram = int(lines.size - n_dram)

        traffic = Traffic()
        if kind is AccessKind.LLC_READ:
            traffic.dram_reads = n_dram
            traffic.nvram_reads = n_nvram
            traffic.demand_reads = int(lines.size)
        else:
            traffic.dram_writes = n_dram
            traffic.nvram_writes = n_nvram
            traffic.demand_writes = int(lines.size)

        tags = TagStats()  # no DRAM cache, no tag events
        if weight != 1:
            traffic = traffic.scaled(weight)
        seconds = self._account(traffic, tags, ctx, advance)
        return AccessReport(traffic=traffic, tags=tags, seconds=seconds)


class CachedBackend(_EpochSupport):
    """2LM / memory mode: a DRAM cache model in front of NVRAM."""

    def __init__(
        self,
        platform: PlatformConfig,
        cache: _CacheLike,
        counters: Optional[UncoreCounters] = None,
        nvram_efficiency: float = MISS_HANDLER_EFFICIENCY,
    ) -> None:
        super().__init__()
        self.platform = platform
        self.cache = cache
        self.counters = counters or UncoreCounters()
        self.timing = TimingModel(
            platform,
            nvram_efficiency=nvram_efficiency,
            cache_managed=True,
        )

    def _access(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool,
        weight: int,
    ) -> AccessReport:
        if kind is AccessKind.LLC_READ:
            traffic, tags = self.cache.llc_read(lines)
        else:
            traffic, tags = self.cache.llc_write(lines)

        if weight != 1:
            traffic = traffic.scaled(weight)
            tags = tags.scaled(weight)
        seconds = self._account(traffic, tags, ctx, advance)
        return AccessReport(traffic=traffic, tags=tags, seconds=seconds)
