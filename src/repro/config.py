"""Platform configuration: the paper's test system (Figure 1) as data.

The paper's machine is a two-socket Cascade Lake server.  Each socket has
24 cores, two integrated memory controllers with three channels each, and
every channel is populated with one 32 GiB DDR4 DIMM and one 512 GiB
Optane DC DIMM.  In 2LM mode the DRAM on a socket (192 GiB) acts as a
direct-mapped cache for the socket's NVRAM (3 TiB).

Because a line-accurate simulation of terabyte address spaces is
impractical, every configuration can be *scaled*: :meth:`PlatformConfig.scaled`
divides all capacities **and** all bandwidths by the same factor, which
leaves every ratio the paper's conclusions rest on (access amplification,
bandwidth asymmetry, working-set-to-cache-size) unchanged and — usefully —
keeps simulated wall-clock times directly comparable to the paper's.

Bandwidth calibration sources:

* NVRAM read: 5.3 GB/s per 512 GiB DIMM (Intel product brief, cited in
  Section III-C), 6 interleaved DIMMs saturate at ~30 GB/s with 8 threads.
* NVRAM write: ~11 GB/s for 6 DIMMs, peaking at 4 threads (Figure 2b).
* Optane media granularity is 256 B; random 64 B writes suffer ~4x write
  amplification (Yang et al., FAST'20; Section III-C).
* DRAM: DDR4-2666, 21.3 GB/s per-channel bus, ~80 % sustained.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.units import CACHE_LINE, GiB, KiB, MiB, NVRAM_MEDIA_GRANULARITY


@dataclass(frozen=True)
class DRAMConfig:
    """One DDR4 DRAM DIMM and the channel bus it sits on."""

    capacity: int = 32 * GiB
    #: Raw DDR4-2666 channel bus bandwidth, bytes/s.
    channel_bus_bandwidth: float = 21.3e9
    #: Fraction of the bus achievable for well-formed streams.
    sustained_fraction: float = 0.88
    #: Extra derating for random 64 B access (bank conflicts, row misses).
    random_penalty: float = 0.85

    @property
    def sustained_bandwidth(self) -> float:
        """Achievable bytes/s for sequential streams on one channel."""
        return self.channel_bus_bandwidth * self.sustained_fraction


@dataclass(frozen=True)
class NVRAMConfig:
    """One Optane DC DIMM (phase-change media behind a DDR-T interface)."""

    capacity: int = 512 * GiB
    #: Sequential read bandwidth of one DIMM, bytes/s (512 GiB part).
    read_bandwidth: float = 5.3e9
    #: Sequential write bandwidth of one DIMM using nontemporal stores.
    write_bandwidth: float = 1.9e9
    #: Media access granularity; smaller writes are amplified.
    media_granularity: int = NVRAM_MEDIA_GRANULARITY
    #: Threads at which aggregate write bandwidth peaks (Figure 2b).
    write_saturation_threads: int = 4
    #: Per-extra-thread degradation beyond the write peak.
    write_oversubscription_penalty: float = 0.01
    #: Floor on the oversubscription derating.
    write_oversubscription_floor: float = 0.85
    #: Interference between concurrent reads and writes on one DIMM:
    #: 0.0 = fully overlapped (independent queues), 1.0 = serialized.
    mixed_interference: float = 0.25
    #: Concurrent sequential streams the on-DIMM write-combining buffer
    #: (XPBuffer) can merge; beyond this, 64 B writes stop coalescing
    #: into 256 B media writes (Yang et al., FAST'20).
    stream_capacity: int = 4
    #: Fraction of write bandwidth retained once streams exceed the
    #: buffer capacity (partial merging).
    multistream_write_factor: float = 0.5


@dataclass(frozen=True)
class CPUConfig:
    """Cores, last-level cache, and per-thread demand limits of one socket."""

    cores: int = 24
    llc_capacity: int = 33 * MiB
    #: Peak demand-read bytes/s a single thread can issue to the IMCs.
    per_thread_read_bandwidth: float = 5.0e9
    #: Peak write bytes/s a single thread can issue (nontemporal stores).
    per_thread_write_bandwidth: float = 4.0e9
    #: Retired instructions per byte of demand traffic for a pure
    #: load/store loop; used only for the MIPS traces (Figure 5a).
    instructions_per_byte: float = 0.25
    #: Peak aggregate fp32 throughput of the socket: 24 cores x ~2.5 GHz
    #: x 64 flops/cycle (dual AVX-512 FMA).
    peak_flops: float = 3.8e12
    #: Retired instructions per floating-point operation (SIMD packing);
    #: calibrated so compute-bound phases show ~4e4 MIPS (Figure 5a).
    instructions_per_flop: float = 0.018


@dataclass(frozen=True)
class SocketConfig:
    """One CPU socket: 6 channels, each with a DRAM and an NVRAM DIMM."""

    channels: int = 6
    dram: DRAMConfig = DRAMConfig()
    nvram: NVRAMConfig = NVRAMConfig()
    cpu: CPUConfig = CPUConfig()

    @property
    def dram_capacity(self) -> int:
        return self.channels * self.dram.capacity

    @property
    def nvram_capacity(self) -> int:
        return self.channels * self.nvram.capacity

    @property
    def nvram_read_bandwidth(self) -> float:
        """Aggregate sequential NVRAM read bandwidth, bytes/s."""
        return self.channels * self.nvram.read_bandwidth

    @property
    def nvram_write_bandwidth(self) -> float:
        """Aggregate sequential NVRAM write bandwidth, bytes/s."""
        return self.channels * self.nvram.write_bandwidth

    @property
    def dram_bandwidth(self) -> float:
        """Aggregate sustained DRAM bandwidth, bytes/s."""
        return self.channels * self.dram.sustained_bandwidth


@dataclass(frozen=True)
class PlatformConfig:
    """The full test platform (Figure 1)."""

    sockets: int = 2
    socket: SocketConfig = SocketConfig()
    #: Factor by which capacities and bandwidths were divided; purely
    #: informational, recorded by :meth:`scaled`.
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ConfigurationError("platform needs at least one socket")
        if self.socket.dram.capacity % CACHE_LINE:
            raise ConfigurationError("DRAM capacity must be a multiple of the line size")
        if self.socket.nvram.capacity % CACHE_LINE:
            raise ConfigurationError("NVRAM capacity must be a multiple of the line size")

    def scaled(self, factor: float) -> "PlatformConfig":
        """Return a copy with capacities and bandwidths divided by ``factor``.

        Capacities are rounded down to whole lines.  The cache-line size
        itself is never scaled, so cache-policy behaviour (Table I access
        counts, Figure 3 state machine) is identical at any scale.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")

        def cap(nbytes: int) -> int:
            scaled_bytes = int(nbytes / factor)
            scaled_bytes -= scaled_bytes % CACHE_LINE
            if scaled_bytes < CACHE_LINE:
                raise ConfigurationError(
                    f"scaling by {factor} shrinks a {nbytes}-byte device below one line"
                )
            return scaled_bytes

        dram = replace(
            self.socket.dram,
            capacity=cap(self.socket.dram.capacity),
            channel_bus_bandwidth=self.socket.dram.channel_bus_bandwidth / factor,
        )
        nvram = replace(
            self.socket.nvram,
            capacity=cap(self.socket.nvram.capacity),
            read_bandwidth=self.socket.nvram.read_bandwidth / factor,
            write_bandwidth=self.socket.nvram.write_bandwidth / factor,
        )
        cpu = replace(
            self.socket.cpu,
            llc_capacity=max(64 * KiB, cap(self.socket.cpu.llc_capacity)),
            per_thread_read_bandwidth=self.socket.cpu.per_thread_read_bandwidth / factor,
            per_thread_write_bandwidth=self.socket.cpu.per_thread_write_bandwidth / factor,
            peak_flops=self.socket.cpu.peak_flops / factor,
        )
        socket = replace(self.socket, dram=dram, nvram=nvram, cpu=cpu)
        return replace(self, socket=socket, scale_factor=self.scale_factor * factor)


#: Lines per host batch: a memory backend (:mod:`repro.memsys.backends`)
#: cuts any longer request vector into batches of this size.  It is also
#: the default of the kernel runner's request-interleaving block and of
#: kvtrace's replay window.  A pure implementation granularity: it
#: bounds numpy temporaries and sets how finely the kernel runner's LLC
#: write-back queue interleaves with demand reads.
#: Re-tuned from ``1 << 16`` after the segmented cache engine made
#: high-collision batches O(n log n): larger batches now amortize more
#: per-call overhead with no collision-regime penalty, and at the
#: default 1/1024 scale the scaled LLC is far smaller than either value,
#: so write-back resolution is unchanged.
BATCH_LINES = 1 << 18

#: The canonical paper platform at full (hardware) scale.
PAPER_PLATFORM = PlatformConfig()

#: Default scale used by the experiment harness: 1/1024 of the hardware.
DEFAULT_SCALE = 1024.0


def default_platform(scale: float = DEFAULT_SCALE) -> PlatformConfig:
    """The paper platform scaled for simulation (192 MiB DRAM cache/socket)."""
    return PAPER_PLATFORM.scaled(scale)
