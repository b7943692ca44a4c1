"""Epoch-based timing engine.

The simulator is *traffic-first*: workloads and the cache model produce
exact per-device access counts (a :class:`~repro.perf.counters.Traffic`
record), and this module converts a traffic record plus its execution
context into elapsed seconds.  Elapsed time for an epoch is the largest
of the independent rate limits:

* the demand side — threads can only issue loads/stores so fast;
* per channel, the shared DDR-T bus carrying both DRAM and NVRAM data;
* per channel, the DRAM device itself;
* per channel, the NVRAM DIMM, whose media serializes reads and writes.

Traffic is assumed evenly interleaved across the channels in use, which
matches the paper's configuration ("all six Optane DC DIMMs are
configured as a single interleaved set").

The ``nvram_efficiency`` knob models the 2LM miss handler's occupancy
overhead: when NVRAM is reached through the DRAM cache's miss handler
rather than directly, the paper measures only ~60-75 % of raw device
bandwidth (Section IV-D contrasts Figure 4 with Figure 2).  Flat (1LM)
backends use efficiency 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.config import PlatformConfig
from repro.perf.counters import AccessContext, Traffic
from repro.memsys.dram import DRAMDevice
from repro.memsys.nvram import NVRAMDevice


@dataclass(frozen=True)
class TimeBreakdown:
    """Per-constraint times for one epoch; ``elapsed`` is their maximum."""

    demand_read: float
    demand_write: float
    channel_bus: float
    dram_device: float
    nvram_device: float

    @property
    def elapsed(self) -> float:
        return max(
            self.demand_read,
            self.demand_write,
            self.channel_bus,
            self.dram_device,
            self.nvram_device,
        )

    @property
    def bottleneck(self) -> str:
        """Name of the constraint that determined the elapsed time."""
        times = {
            "demand_read": self.demand_read,
            "demand_write": self.demand_write,
            "channel_bus": self.channel_bus,
            "dram_device": self.dram_device,
            "nvram_device": self.nvram_device,
        }
        return max(times, key=times.__getitem__)


class TimingModel:
    """Converts traffic records into elapsed time on a given platform."""

    def __init__(
        self,
        platform: PlatformConfig,
        nvram_efficiency: float = 1.0,
        cache_managed: bool = False,
    ) -> None:
        if not 0.0 < nvram_efficiency <= 1.0:
            raise ValueError(f"nvram_efficiency must be in (0, 1], got {nvram_efficiency}")
        self.platform = platform
        self.nvram_efficiency = nvram_efficiency
        #: In 2LM the miss handler, not CPU threads, issues NVRAM traffic:
        #: the thread-oversubscription write derating does not apply, but
        #: each miss's fill read and write-back serialize on the media.
        self.cache_managed = cache_managed
        self._dram = DRAMDevice(platform.socket.dram)
        self._nvram = NVRAMDevice(platform.socket.nvram)
        #: Epoch context -> the context the NVRAM device sees, built
        #: once per distinct context (epochs repeat a handful of them).
        self._nvram_ctxs: Dict[AccessContext, AccessContext] = {}

    def breakdown(self, traffic: Traffic, ctx: AccessContext) -> TimeBreakdown:
        """Compute the per-constraint service times for one epoch."""
        socket = self.platform.socket
        sockets = min(ctx.sockets, self.platform.sockets)
        channels = socket.channels * sockets
        threads = min(ctx.threads, socket.cpu.cores * sockets)

        demand_read = _ratio(
            traffic.demand_reads * self.platform.line_size,
            threads * socket.cpu.per_thread_read_bandwidth,
        )
        demand_write = _ratio(
            traffic.demand_writes * self.platform.line_size,
            threads * socket.cpu.per_thread_write_bandwidth,
        )

        dram_bytes = (traffic.dram_read_bytes + traffic.dram_write_bytes) / channels
        nvram_read_bytes = traffic.nvram_read_bytes / channels
        nvram_write_bytes = traffic.nvram_write_bytes / channels

        channel_bus = _ratio(
            dram_bytes + nvram_read_bytes + nvram_write_bytes,
            socket.dram.channel_bus_bandwidth,
        )
        dram_device = self._dram.service_time(dram_bytes, ctx)
        nvram_device = (
            self._nvram.service_time(
                nvram_read_bytes,
                nvram_write_bytes,
                self._nvram_ctx(ctx),
                serialize=self.cache_managed,
            )
            / self.nvram_efficiency
        )

        return TimeBreakdown(
            demand_read=demand_read,
            demand_write=demand_write,
            channel_bus=channel_bus,
            dram_device=dram_device,
            nvram_device=nvram_device,
        )

    def _nvram_ctx(self, ctx: AccessContext) -> AccessContext:
        """``ctx`` as the NVRAM device sees it: in 2LM, the miss handler
        drives the media at its write-saturation thread count."""
        if not self.cache_managed:
            return ctx
        nvram_ctx = self._nvram_ctxs.get(ctx)
        if nvram_ctx is None:
            sockets = min(ctx.sockets, self.platform.sockets)
            threads = self.platform.socket.nvram.write_saturation_threads * sockets
            nvram_ctx = self._nvram_ctxs[ctx] = replace(ctx, threads=threads)
        return nvram_ctx

    def elapsed(self, traffic: Traffic, ctx: AccessContext) -> float:
        """Seconds to complete ``traffic`` under ``ctx``."""
        return self.breakdown(traffic, ctx).elapsed


def _ratio(numerator: float, denominator: float) -> float:
    if not numerator:
        return 0.0
    return numerator / denominator
