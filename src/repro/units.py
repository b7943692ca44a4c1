"""Byte-size units and formatting helpers.

All capacities in this package are expressed in bytes.  These constants
mirror the conventions of the paper: binary prefixes (KiB, MiB, GiB) for
device capacities and decimal gigabytes-per-second for bandwidth, matching
the numbers reported in the paper's figures (e.g. "30 GB/s" NVRAM read
bandwidth means 30e9 bytes per second).
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

KB: int = 1000
MB: int = 1000 * KB
GB: int = 1000 * MB
TB: int = 1000 * GB

#: Cache-line size of the CPU and of the 2LM DRAM cache (Section IV).
CACHE_LINE: int = 64

#: Optane media access granularity: the DIMM's internal controller reads
#: and writes the 3D-XPoint media in 256-byte chunks (Yang et al., FAST'20).
NVRAM_MEDIA_GRANULARITY: int = 256


def gb_per_s(value: float) -> float:
    """Convert a bandwidth in decimal GB/s to bytes per second."""
    return value * 1e9


def to_gb_per_s(bytes_per_second: float) -> float:
    """Convert bytes per second to decimal GB/s (as plotted in the paper)."""
    return bytes_per_second / 1e9


def format_bytes(n: float) -> str:
    """Render a byte count with a binary prefix, e.g. ``format_bytes(3 * GiB)``."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    for unit, suffix in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if n >= unit:
            return f"{n / unit:.2f} {suffix}"
    return f"{n:.0f} B"


def lines_in(nbytes: int) -> int:
    """Number of cache lines covering ``nbytes`` (must divide evenly)."""
    if nbytes % CACHE_LINE:
        raise ValueError(f"{nbytes} bytes is not a whole number of {CACHE_LINE}B lines")
    return nbytes // CACHE_LINE
