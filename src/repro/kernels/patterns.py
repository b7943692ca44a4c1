"""Spatial access-pattern generation for the microbenchmark kernels.

Produces the order in which a kernel touches the cache lines of a
buffer.  Sequential iteration walks the buffer in address order; random
iteration permutes *blocks* of the chosen access granularity with the
maximum-length LFSR, touching every line exactly once per pass
(Section III-B: granularity ranges 64 B to 512 B, sequential iteration
is granularity-indifferent).

Orders are memoized per process: a sweep revisits the same
(num_lines, pattern, granularity) combination for every thread count,
so the expensive LFSR expansion runs once and every later lookup
returns the same **read-only** cached array (``writeable=False``).
The memoization is process-safe by construction — each sweep worker
owns its private cache (warm via fork's copy-on-write), and the
read-only flag guarantees no caller can corrupt an entry another
caller shares.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.lfsr import lfsr_sequence
from repro.perf.counters import Pattern
from repro.units import CACHE_LINE


def access_blocks(
    num_lines: int,
    pattern: Pattern,
    granularity: int = CACHE_LINE,
) -> np.ndarray:
    """Line-offset visit order for one pass over a ``num_lines`` buffer.

    Parameters
    ----------
    num_lines:
        Buffer length in cache lines.
    pattern:
        ``SEQUENTIAL`` or ``RANDOM``.
    granularity:
        Access granularity in bytes; random iteration shuffles blocks of
        this size and walks lines within a block consecutively.

    Returns a **shared, read-only** cache entry; callers that need a
    mutable order must copy (arithmetic like ``start + order`` already
    allocates a fresh array).
    """
    if num_lines < 0:
        raise ValueError(f"num_lines must be non-negative, got {num_lines}")
    if granularity % CACHE_LINE:
        raise ValueError(f"granularity {granularity} is not a multiple of {CACHE_LINE}")
    if pattern is Pattern.SEQUENTIAL:
        # Sequential iteration is granularity-indifferent: normalize the
        # cache key so every granularity shares one entry.
        return _cached_order(num_lines, pattern, CACHE_LINE)
    return _cached_order(num_lines, pattern, granularity)


@lru_cache(maxsize=64)
def _cached_order(num_lines: int, pattern: Pattern, granularity: int) -> np.ndarray:
    order = _compute_order(num_lines, pattern, granularity)
    order.setflags(write=False)
    return order


def _compute_order(num_lines: int, pattern: Pattern, granularity: int) -> np.ndarray:
    if pattern is Pattern.SEQUENTIAL:
        return np.arange(num_lines, dtype=np.int64)

    lines_per_block = granularity // CACHE_LINE
    if num_lines % lines_per_block:
        raise ValueError(
            f"{num_lines} lines do not divide into {granularity}-byte blocks"
        )
    num_blocks = num_lines // lines_per_block
    block_order = lfsr_sequence(num_blocks)
    if lines_per_block == 1:
        # lfsr_sequence returns its own read-only cache entry; both
        # caches may share it — neither will ever write through it.
        return block_order
    expanded = block_order[:, None] * lines_per_block + np.arange(
        lines_per_block, dtype=np.int64
    )
    return expanded.reshape(-1)


def pattern_cache_info():
    """Hit/miss statistics of the per-process access-order cache."""
    return _cached_order.cache_info()


def pattern_cache_clear() -> None:
    """Drop every cached access order (tests use this for isolation)."""
    _cached_order.cache_clear()
