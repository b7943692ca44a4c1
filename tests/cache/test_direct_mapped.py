"""Behavioural tests for the vectorized direct-mapped cache."""

import numpy as np
import pytest

from repro.cache import DirectMappedCache
from repro.errors import ConfigurationError


@pytest.fixture
def cache():
    return DirectMappedCache(256 * 64)  # 256 sets


class TestConstruction:
    def test_sets_from_capacity(self):
        assert DirectMappedCache(1024 * 64).num_sets == 1024

    def test_rejects_partial_lines(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(100)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(0)


class TestStateTracking:
    def test_contains_after_read(self, cache):
        cache.llc_read(np.array([5, 10]))
        assert cache.contains(np.array([5, 10, 15])).tolist() == [True, True, False]

    def test_dirty_after_write(self, cache):
        cache.llc_read(np.array([5]))
        cache.llc_write(np.array([10]))
        assert cache.is_dirty(np.array([5, 10])).tolist() == [False, True]

    def test_aliasing_evicts(self, cache):
        cache.llc_read(np.array([5]))
        cache.llc_read(np.array([5 + 256]))  # same set
        assert not cache.contains(np.array([5]))[0]
        assert cache.contains(np.array([5 + 256]))[0]

    def test_occupancy_and_dirty_fraction(self, cache):
        assert cache.occupancy == 0.0
        cache.llc_read(np.arange(128))
        assert cache.occupancy == pytest.approx(0.5)
        cache.llc_write(np.arange(64))
        assert cache.dirty_fraction == pytest.approx(0.25)

    def test_reset(self, cache):
        cache.llc_write(np.arange(100))
        cache.reset()
        assert cache.occupancy == 0.0
        assert cache.dirty_fraction == 0.0


class TestIntraBatchConflicts:
    def test_same_line_twice_in_one_batch(self, cache):
        # First access misses, second (same batch) must hit.
        traffic, tags = cache.llc_read(np.array([7, 7]))
        assert tags.clean_misses == 1
        assert tags.hits == 1

    def test_aliasing_pair_in_one_batch(self, cache):
        # Two lines in the same set: both miss; the second evicts the first.
        traffic, tags = cache.llc_read(np.array([3, 3 + 256]))
        assert tags.clean_misses == 2
        assert cache.contains(np.array([3 + 256]))[0]
        assert not cache.contains(np.array([3]))[0]

    def test_write_then_read_alias_in_one_batch_counts_dirty(self, cache):
        cache.llc_write(np.array([4]))
        traffic, tags = cache.llc_read(np.array([4 + 256]))
        assert tags.dirty_misses == 1

    def test_order_dependence_within_batch(self, cache):
        # [a, alias, a] -> miss, miss (evicts a), miss again.
        a, alias = 9, 9 + 256
        traffic, tags = cache.llc_read(np.array([a, alias, a]))
        assert tags.clean_misses == 3
        assert tags.hits == 0

    def test_empty_batch(self, cache):
        traffic, tags = cache.llc_read(np.empty(0, dtype=np.int64))
        assert traffic.total_accesses == 0
        assert tags.checks == 0


class TestDDOStateMachine:
    def test_write_installed_line_not_ddo_eligible(self, cache):
        cache.llc_write(np.array([3]))  # installed by a write
        traffic, tags = cache.llc_write(np.array([3]))
        assert tags.ddo_writes == 0
        assert tags.hits == 1

    def test_read_arms_ddo_even_on_hit(self, cache):
        cache.llc_write(np.array([3]))  # resident, not armed
        cache.llc_read(np.array([3]))  # hit arms the DDO
        traffic, tags = cache.llc_write(np.array([3]))
        assert tags.ddo_writes == 1

    def test_eviction_disarms_ddo(self, cache):
        cache.llc_read(np.array([3]))  # armed
        cache.llc_write(np.array([3 + 256]))  # write-miss evicts line 3
        traffic, tags = cache.llc_write(np.array([3]))
        assert tags.ddo_writes == 0  # line 3 is gone: full dirty write miss
        assert tags.dirty_misses == 1

    def test_ddo_disabled_variant(self):
        cache = DirectMappedCache(256 * 64, ddo_enabled=False)
        cache.llc_read(np.array([3]))
        traffic, tags = cache.llc_write(np.array([3]))
        assert tags.ddo_writes == 0
        assert tags.hits == 1
        assert traffic.dram_reads == 1  # tag check not elided

    def test_ddo_repeats_while_resident(self, cache):
        cache.llc_read(np.array([3]))
        for _ in range(3):
            traffic, tags = cache.llc_write(np.array([3]))
            assert tags.ddo_writes == 1


class TestWriteAroundVariant:
    def test_clean_write_miss_two_accesses(self):
        cache = DirectMappedCache(256 * 64, insert_on_write_miss=False)
        cache.llc_read(np.arange(256))  # fill with clean aliases
        traffic, tags = cache.llc_write(np.arange(256, 512))
        assert tags.clean_misses == 256
        # Tag check + direct NVRAM write; no fill, no insert.
        assert traffic.dram_reads == 256
        assert traffic.nvram_writes == 256
        assert traffic.nvram_reads == 0
        assert traffic.dram_writes == 0
        assert traffic.amplification == 2.0

    def test_occupant_untouched_on_write_around(self):
        cache = DirectMappedCache(256 * 64, insert_on_write_miss=False)
        cache.llc_write(np.array([3]))  # dirty occupant (via miss... still installs?)
        # With write-around, the write miss does NOT install line 3.
        assert not cache.contains(np.array([3]))[0]

    def test_dirty_occupant_stays_dirty(self):
        cache = DirectMappedCache(256 * 64, insert_on_write_miss=False)
        cache.llc_read(np.array([3]))
        cache.llc_write(np.array([3]))  # DDO hit: dirty in place
        assert cache.is_dirty(np.array([3]))[0]
        cache.llc_write(np.array([3 + 256]))  # write-around miss
        assert cache.is_dirty(np.array([3]))[0]  # occupant untouched


class TestInputValidation:
    def test_rejects_negative_lines(self, cache):
        with pytest.raises(ValueError):
            cache.llc_read(np.array([-1]))

    def test_rejects_2d_input(self, cache):
        with pytest.raises(ValueError):
            cache.llc_read(np.zeros((2, 2), dtype=np.int64))

    def test_accepts_lists(self, cache):
        traffic, tags = cache.llc_read([1, 2, 3])
        assert tags.clean_misses == 3
