"""Memory-system backends: the 1LM (flat) and 2LM (cached) configurations.

A backend is the boundary workloads talk to: it accepts LLC request
vectors of any length, produces exact device traffic, charges it to the
uncore counters, and advances the virtual clock using the timing model.
Inside an :class:`Epoch` an access charges only the epoch's pooled
traffic; the counter bank is charged once, when the epoch closes, the way
the paper reads its IMC counters by differencing snapshots around a
phase (Section III-B), so the bank is read between epochs.
The backend is also the one place host batching happens: ``access`` cuts
a vector longer than :data:`repro.config.BATCH_LINES` into consecutive
batches, so no workload executor chunks its own streams.

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
from dataclasses import fields
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
    through (the caller's array itself, so the grouping memo keyed on
    its identity still applies), and ``llc_read``/``llc_write`` coerce a
    vector they have not grouped before with
    :func:`~repro.perf.counters.as_lines`, raising ``ValueError`` on a
    negative or non-1-D batch.
    """

    def llc_read(self, lines: np.ndarray) -> "tuple[Traffic, TagStats]": ...

    def llc_write(self, lines: np.ndarray) -> "tuple[Traffic, TagStats]": ...

#: Calibrated fraction of raw NVRAM bandwidth achievable through the 2LM
#: miss handler (Section IV-D: 23 GB/s of ~32 GB/s read, 8 of ~11 write).
MISS_HANDLER_EFFICIENCY = 0.72

#: (attribute, metric name, help) rows for the IMC counters, so charging
#: them never rebuilds metric-name strings.
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
    :meth:`_EpochSupport._record`); each slot resolves lazily on its
    first nonzero increment, preserving the registry invariant that a
    counter exists only once something was recorded to it.
    """

    __slots__ = ("tele", "traffic", "tags")

    def __init__(self, tele) -> None:
        self.tele = tele
        self.traffic: List[Optional[obs.Counter]] = [None] * len(_TRAFFIC_COUNTER_SPECS)
        self.tags: List[Optional[obs.Counter]] = [None] * len(_TAG_COUNTER_SPECS)


class Epoch:
    """A window of overlapped execution.

    Within an epoch, accesses add their traffic to ``traffic``/``tags``
    but no time; when the epoch closes, the pooled traffic is charged to
    the counter bank and elapsed time is computed from it, so
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
    ) -> None:
        """Process a vector of LLC requests and account for them.

        ``weight`` multiplies the recorded traffic: stride-sampling
        executors simulate every N-th line and weight the result by N.
        Inside an epoch the traffic lands in the epoch; outside one it
        is charged to the counter bank at once (read a delta of it).
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
                # Charged even when the epoch raises; the clock then
                # does not advance.
                self._record(epoch.traffic, epoch.tags)
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
    ) -> None:
        """Process ``lines`` in host batches of at most ``BATCH_LINES``.

        A vector within the cap is one batch, the array itself.  A longer
        one is validated whole, then cut into consecutive ``BATCH_LINES``
        slices, each accounted as its own batch (its own clock advance
        outside an epoch, ``memsys.access`` span and batch-size
        observation).
        """
        if weight < 0:
            raise ValueError("weight must be non-negative")
        if np.size(lines) <= BATCH_LINES:
            self._access_batch(lines, kind, ctx, advance, weight)
            return
        whole = as_lines(lines)
        for begin in range(0, whole.size, BATCH_LINES):
            self._access_batch(whole[begin : begin + BATCH_LINES], kind, ctx, advance, weight)

    def _access_batch(
        self,
        lines: np.ndarray,
        kind: AccessKind,
        ctx: AccessContext,
        advance: bool,
        weight: int,
    ) -> None:
        tele = obs.get()
        if not tele.enabled:
            traffic, tags = self._counts(lines, kind)
            self._charge(traffic, tags, ctx, advance, weight)
            return
        with tele.span(
            "memsys.access", cat="memsys", clock=lambda: self.counters.time
        ) as span:
            traffic, tags = self._counts(lines, kind)
            self._charge(traffic, tags, ctx, advance, weight)
            span.set(
                kind=kind.value,
                lines=int(np.size(lines)),
                weight=weight,
                dram=(traffic.dram_reads + traffic.dram_writes) * weight,
                nvram=(traffic.nvram_reads + traffic.nvram_writes) * weight,
            )
        tele.histogram(
            "repro_access_batch_lines",
            obs.SIZE_BUCKETS,
            "LLC request lines per host batch",
        ).observe(int(np.size(lines)))

    def _counts(self, lines: np.ndarray, kind: AccessKind) -> "tuple[Traffic, TagStats]":
        """One batch's unweighted traffic and tag events."""
        raise NotImplementedError

    def _charge(
        self,
        traffic: Traffic,
        tags: TagStats,
        ctx: AccessContext,
        advance: bool,
        weight: int,
    ) -> None:
        """Charge one batch's counts times ``weight``: to the open epoch,
        or, outside one, to the counter bank and (with ``advance``) the
        clock, timed on its own."""
        epoch = self._active_epoch
        if epoch is not None:
            epoch.traffic.add(traffic, weight)
            epoch.tags.add(tags, weight)
            return
        weighted_traffic, weighted_tags = Traffic(), TagStats()
        weighted_traffic.add(traffic, weight)
        weighted_tags.add(tags, weight)
        self._record(weighted_traffic, weighted_tags)
        if advance:
            self.counters.advance(self.timing.elapsed(weighted_traffic, ctx))

    def _record(self, traffic: Traffic, tags: TagStats) -> None:
        """Charge traffic and tag events to the counter bank and to the
        telemetry counters."""
        self.counters.record_traffic(traffic)
        self.counters.record_tags(tags)
        tele = obs.get()
        if not tele.enabled:
            return
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

    def _counts(self, lines: np.ndarray, kind: AccessKind) -> "tuple[Traffic, TagStats]":
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

        return traffic, TagStats()  # no DRAM cache, no tag events


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

    def _counts(self, lines: np.ndarray, kind: AccessKind) -> "tuple[Traffic, TagStats]":
        if kind is AccessKind.LLC_READ:
            return self.cache.llc_read(lines)
        return self.cache.llc_write(lines)
