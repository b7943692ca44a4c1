"""Tests for access-pattern generation."""

import numpy as np
import pytest

from repro.kernels.patterns import (
    access_blocks,
    pattern_cache_clear,
    pattern_cache_info,
)
from repro.perf.counters import Pattern
from repro.units import MiB


class TestSequential:
    def test_walks_in_order(self):
        order = access_blocks(100, Pattern.SEQUENTIAL)
        assert np.array_equal(order, np.arange(100))

    def test_granularity_indifferent(self):
        # Section III-B: sequential iteration ignores granularity.
        a = access_blocks(128, Pattern.SEQUENTIAL, granularity=64)
        b = access_blocks(128, Pattern.SEQUENTIAL, granularity=512)
        assert np.array_equal(a, b)


class TestRandom:
    def test_touches_every_line_once(self):
        order = access_blocks(1000, Pattern.RANDOM)
        assert np.array_equal(np.sort(order), np.arange(1000))

    def test_block_granularity_keeps_blocks_contiguous(self):
        order = access_blocks(64, Pattern.RANDOM, granularity=256)
        # Blocks of 4 lines: within each block addresses are consecutive.
        blocks = order.reshape(-1, 4)
        assert (np.diff(blocks, axis=1) == 1).all()
        # All lines covered exactly once.
        assert np.array_equal(np.sort(order), np.arange(64))

    def test_blocks_are_shuffled(self):
        order = access_blocks(4096, Pattern.RANDOM, granularity=256)
        starts = order.reshape(-1, 4)[:, 0]
        assert not np.array_equal(starts, np.sort(starts))

    def test_rejects_indivisible_buffer(self):
        with pytest.raises(ValueError):
            access_blocks(63, Pattern.RANDOM, granularity=256)


class TestMemoization:
    def test_repeated_calls_share_one_entry(self):
        pattern_cache_clear()
        first = access_blocks(4096, Pattern.RANDOM, granularity=256)
        before = pattern_cache_info()
        second = access_blocks(4096, Pattern.RANDOM, granularity=256)
        after = pattern_cache_info()
        assert second is first  # the cache hands back the same array
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_entries_are_read_only(self):
        order = access_blocks(1024, Pattern.RANDOM)
        assert order.flags.writeable is False
        with pytest.raises(ValueError):
            order[0] = 7

    def test_sequential_granularity_shares_entry(self):
        # Sequential iteration is granularity-indifferent; the cache key
        # is normalized so every granularity hits the same entry.
        a = access_blocks(512, Pattern.SEQUENTIAL, granularity=64)
        b = access_blocks(512, Pattern.SEQUENTIAL, granularity=512)
        assert b is a

    def test_lfsr_sequence_memoized_read_only(self):
        from repro.kernels.lfsr import lfsr_sequence

        first = lfsr_sequence(1000)
        assert lfsr_sequence(1000) is first
        assert first.flags.writeable is False

    def test_run_kernel_never_mutates_the_cache_entry(self):
        # Regression: run_kernel consumes the shared read-only order
        # (copying only for a non-zero start_line); the cache entry must
        # survive a full kernel run bit-for-bit.
        from repro.experiments.platform import cnn_platform
        from repro.kernels import Kernel, KernelSpec, run_kernel
        from repro.memsys import AddressMap, FlatBackend

        pattern_cache_clear()
        platform = cnn_platform()
        num_lines = MiB // platform.line_size
        cached = access_blocks(num_lines, Pattern.RANDOM, granularity=256)
        pristine = cached.copy()

        backend = FlatBackend(platform, AddressMap.nvram_only(num_lines * 4))
        spec = KernelSpec(
            Kernel.READ_ONLY, pattern=Pattern.RANDOM, granularity=256, threads=4
        )
        run_kernel(backend, spec, num_lines)
        run_kernel(backend, spec, num_lines, start_line=num_lines)

        again = access_blocks(num_lines, Pattern.RANDOM, granularity=256)
        assert again is cached
        assert cached.flags.writeable is False
        assert np.array_equal(cached, pristine)


class TestValidation:
    def test_rejects_negative_lines(self):
        with pytest.raises(ValueError):
            access_blocks(-1, Pattern.SEQUENTIAL)

    def test_rejects_non_multiple_granularity(self):
        with pytest.raises(ValueError):
            access_blocks(10, Pattern.RANDOM, granularity=96)

    def test_zero_lines(self):
        assert access_blocks(0, Pattern.RANDOM).size == 0
