"""Tests for the 1LM and 2LM memory backends."""

import numpy as np
import pytest

from repro.cache import (
    BypassCache,
    DirectMappedCache,
    MissPredictorCache,
    NextLinePrefetchCache,
    SectorCache,
    SetAssociativeCache,
)
from repro.cache.base import AccessKind
from repro.config import default_platform
from repro.memsys import AddressMap, CachedBackend, FlatBackend
from repro.perf.counters import AccessContext
from repro.units import KiB


@pytest.fixture
def platform():
    return default_platform()


@pytest.fixture
def flat(platform):
    amap = AddressMap.numa_preferred(dram_lines=1000, nvram_lines=1000)
    return FlatBackend(platform, amap)


@pytest.fixture
def cached(platform):
    cache = DirectMappedCache(64 * 1024)  # 1024 sets
    return CachedBackend(platform, cache)


class TestFlatBackend:
    def test_routes_by_address(self, flat):
        report = flat.access(
            np.array([0, 500, 1500]), AccessKind.LLC_READ, AccessContext()
        )
        assert report.traffic.dram_reads == 2
        assert report.traffic.nvram_reads == 1
        assert report.traffic.demand_reads == 3

    def test_writes_route_too(self, flat):
        report = flat.access(
            np.array([999, 1000]), AccessKind.LLC_WRITE, AccessContext()
        )
        assert report.traffic.dram_writes == 1
        assert report.traffic.nvram_writes == 1

    def test_no_amplification(self, flat):
        report = flat.access(
            np.arange(2000), AccessKind.LLC_READ, AccessContext()
        )
        assert report.traffic.amplification == 1.0

    def test_no_tag_events(self, flat):
        report = flat.access(np.arange(10), AccessKind.LLC_READ, AccessContext())
        assert report.tags.checks == 0

    def test_advances_clock(self, flat):
        flat.access(np.arange(2000), AccessKind.LLC_READ, AccessContext())
        assert flat.counters.time > 0

    def test_advance_false_leaves_clock(self, flat):
        flat.access(
            np.arange(2000), AccessKind.LLC_READ, AccessContext(), advance=False
        )
        assert flat.counters.time == 0


class TestCachedBackend:
    def test_records_tag_events(self, cached):
        lines = np.arange(100)
        cached.access(lines, AccessKind.LLC_READ, AccessContext())
        assert cached.counters.tags.clean_misses == 100
        cached.access(lines, AccessKind.LLC_READ, AccessContext())
        assert cached.counters.tags.hits == 100

    def test_miss_amplification(self, cached):
        report = cached.access(np.arange(100), AccessKind.LLC_READ, AccessContext())
        assert report.traffic.amplification == 3.0  # Table I clean read miss

    def test_slower_than_flat_on_misses(self, platform, cached):
        amap = AddressMap.nvram_only(10_000)
        flat = FlatBackend(platform, amap)
        lines = np.arange(10_000)
        ctx = AccessContext(threads=24)
        flat_report = flat.access(lines, AccessKind.LLC_READ, ctx)
        cached_report = cached.access(lines, AccessKind.LLC_READ, ctx)
        assert cached_report.seconds > flat_report.seconds


PRODUCTION_MODELS = [
    pytest.param(lambda: DirectMappedCache(64 * KiB), id="direct_mapped"),
    pytest.param(
        lambda: DirectMappedCache(64 * KiB, ddo_enabled=False, insert_on_write_miss=False),
        id="write_around_no_ddo",
    ),
    pytest.param(lambda: SectorCache(64 * KiB, sector_lines=4, footprint=2), id="sector"),
    pytest.param(lambda: SetAssociativeCache(64 * KiB, ways=8), id="set_assoc"),
    pytest.param(lambda: BypassCache(64 * KiB), id="bypass"),
    pytest.param(lambda: MissPredictorCache(64 * KiB), id="predictor"),
    pytest.param(lambda: NextLinePrefetchCache(64 * KiB), id="prefetch"),
]


@pytest.mark.parametrize("make_cache", PRODUCTION_MODELS)
@pytest.mark.parametrize("kind", [AccessKind.LLC_READ, AccessKind.LLC_WRITE], ids=["read", "write"])
@pytest.mark.parametrize(
    "lines", [np.array([3, -1, 5]), np.arange(6).reshape(2, 3)], ids=["negative", "2d"]
)
def test_cached_backend_rejects_invalid_lines(platform, make_cache, kind, lines):
    """The backend hands batches to the model unvalidated; every
    production model rejects a negative or non-1-D batch itself."""
    backend = CachedBackend(platform, make_cache())
    with pytest.raises(ValueError):
        backend.access(lines, kind, AccessContext())


class TestEpochs:
    def test_epoch_pools_traffic_time(self, cached):
        ctx = AccessContext(threads=24)
        with cached.epoch(ctx) as epoch:
            cached.access(np.arange(0, 500), AccessKind.LLC_READ, ctx)
            cached.access(np.arange(500, 1000), AccessKind.LLC_READ, ctx)
        assert epoch.traffic.demand_reads == 1000
        assert epoch.seconds > 0
        assert cached.counters.time == pytest.approx(epoch.seconds)

    def test_epoch_overlaps_read_and_write_demand(self, platform):
        amap = AddressMap.nvram_only(100_000)
        ctx = AccessContext(threads=4)
        lines = np.arange(50_000)

        serial = FlatBackend(platform, amap)
        a = serial.access(lines, AccessKind.LLC_READ, ctx)
        b = serial.access(lines, AccessKind.LLC_WRITE, ctx)

        pooled = FlatBackend(platform, amap)
        with pooled.epoch(ctx) as epoch:
            pooled.access(lines, AccessKind.LLC_READ, ctx)
            pooled.access(lines, AccessKind.LLC_WRITE, ctx)
        assert epoch.seconds < a.seconds + b.seconds

    def test_roofline_compute_floor(self, cached):
        ctx = AccessContext()
        with cached.epoch(ctx) as epoch:
            cached.access(np.arange(10), AccessKind.LLC_READ, ctx)
            epoch.add_compute(100.0)
        assert epoch.seconds == pytest.approx(100.0)
        assert epoch.memory_seconds < 100.0

    def test_epochs_do_not_nest(self, cached):
        ctx = AccessContext()
        with cached.epoch(ctx):
            with pytest.raises(RuntimeError):
                with cached.epoch(ctx):
                    pass

    def test_epoch_reusable_after_exception(self, cached):
        ctx = AccessContext()
        with pytest.raises(ValueError):
            with cached.epoch(ctx):
                raise ValueError("boom")
        with cached.epoch(ctx) as epoch:
            cached.access(np.arange(5), AccessKind.LLC_READ, ctx)
        assert epoch.traffic.demand_reads == 5

    def test_negative_compute_rejected(self, cached):
        with cached.epoch(AccessContext()) as epoch:
            with pytest.raises(ValueError):
                epoch.add_compute(-1.0)
