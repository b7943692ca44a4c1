"""Tests for the 1LM and 2LM memory backends."""

import contextlib

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
from repro.memsys import backends as backends_module
from repro.memsys.backends import AccessReport
from repro.perf.counters import AccessContext, TagStats, Traffic
from repro.traces.replay import MODEL_FACTORIES
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


# -- host batching: a long vector equals its BATCH_LINES slices --------------

#: A small, odd host-batch cap, so modest vectors take the slicing path.
CAP = 257

SLICED_BACKENDS = ["flat", *sorted(MODEL_FACTORIES), "no_ddo"]


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(backends_module, "BATCH_LINES", CAP)


def make_backend(platform, name):
    if name == "flat":
        return FlatBackend(platform, AddressMap.numa_preferred(dram_lines=1500, nvram_lines=4000))
    if name == "no_ddo":
        return CachedBackend(platform, DirectMappedCache(64 * KiB, ddo_enabled=False))
    return CachedBackend(platform, MODEL_FACTORIES[name](64 * KiB))


def model_state(backend):
    """The model's whole simulation state: tag, dirty, known-resident and
    sector arrays, LRU stamps and clock, RNG states.  The segmenter is a
    host-side memo, not state, and is left out."""
    cache = getattr(backend, "cache", None)  # a flat backend has no model
    state = {}
    for name, value in (vars(cache) if cache is not None else {}).items():
        if isinstance(value, np.random.Generator):
            state[name] = value.bit_generator.state
        elif isinstance(value, np.ndarray):
            state[name] = value.tolist()
        elif isinstance(value, (bool, int, float, np.integer)):
            state[name] = value
    return state


def counter_state(backend):
    counters = backend.counters
    return counters.traffic, counters.tags, counters.time


def request_stream(order, length):
    """A read, a write and a re-read, each a vector of ``length`` lines."""
    kinds = (AccessKind.LLC_READ, AccessKind.LLC_WRITE, AccessKind.LLC_READ)
    if order == "ascending":
        starts = (0, 700, 350)
        return [(np.arange(s, s + length, dtype=np.int64), k) for s, k in zip(starts, kinds)]
    rng = np.random.default_rng(length)
    return [(rng.integers(0, 5000, size=length, dtype=np.int64), k) for k in kinds]


def replay(backend, stream, mode, weight, sliced):
    """Feed ``stream`` through ``backend``: each vector whole, or (when
    ``sliced``) one call per ``CAP``-line slice.  Returns one report per
    vector, its calls' reports summed, and the epoch if one was open."""
    ctx = AccessContext(threads=8)
    reports = []
    with contextlib.ExitStack() as stack:
        epoch = stack.enter_context(backend.epoch(ctx)) if mode == "epoch" else None
        for lines, kind in stream:
            parts = [lines[b : b + CAP] for b in range(0, lines.size, CAP)] if sliced else [lines]
            calls = [
                backend.access(part, kind, ctx, advance=mode != "no_advance", weight=weight)
                for part in parts
            ]
            reports.append(
                AccessReport(
                    traffic=sum((call.traffic for call in calls), Traffic()),
                    tags=sum((call.tags for call in calls), TagStats()),
                    seconds=sum(call.seconds for call in calls),
                )
            )
    return reports, epoch


@pytest.mark.usefixtures("small_cap")
@pytest.mark.parametrize("name", SLICED_BACKENDS)
@pytest.mark.parametrize("order", ["random", "ascending"])
@pytest.mark.parametrize("length", [3 * CAP, 3 * CAP + 101], ids=["k_cap", "k_cap_plus_r"])
@pytest.mark.parametrize("weight", [1, 16])
@pytest.mark.parametrize("mode", ["epoch", "advance", "no_advance"])
def test_long_vector_equals_its_slices(platform, name, order, length, weight, mode):
    """One ``access`` of a vector longer than the cap leaves the counters
    and the model exactly as a twin fed its slices one call at a time,
    and reports the slices' sum."""
    stream = request_stream(order, length)
    whole, twin = make_backend(platform, name), make_backend(platform, name)
    whole_reports, whole_epoch = replay(whole, stream, mode, weight, sliced=False)
    twin_reports, twin_epoch = replay(twin, stream, mode, weight, sliced=True)
    assert whole_reports == twin_reports
    assert counter_state(whole) == counter_state(twin)
    assert model_state(whole) == model_state(twin)
    if mode == "epoch":
        assert (whole_epoch.traffic, whole_epoch.tags, whole_epoch.seconds) == (
            twin_epoch.traffic,
            twin_epoch.tags,
            twin_epoch.seconds,
        )
    assert whole.counters.traffic.demand_accesses == 3 * length * weight


@pytest.mark.usefixtures("small_cap")
@pytest.mark.parametrize("kind", [AccessKind.LLC_READ, AccessKind.LLC_WRITE], ids=["read", "write"])
def test_vector_within_the_cap_reaches_the_model_as_itself(platform, kind, monkeypatch):
    """Segmentation reuse is keyed on array identity, so a vector of at
    most ``BATCH_LINES`` lines must reach the model uncopied."""
    backend = make_backend(platform, "direct_mapped")
    method = "llc_read" if kind is AccessKind.LLC_READ else "llc_write"
    real = getattr(backend.cache, method)
    seen = []

    def spy(lines):
        seen.append(lines)
        return real(lines)

    monkeypatch.setattr(backend.cache, method, spy)
    for size in (0, 1, CAP):
        lines = np.arange(size, dtype=np.int64)
        backend.access(lines, kind, AccessContext())
        assert seen.pop() is lines
    backend.access(np.arange(2 * CAP + 5, dtype=np.int64), kind, AccessContext())
    assert [batch.size for batch in seen] == [CAP, CAP, 5]


@pytest.mark.usefixtures("small_cap")
@pytest.mark.parametrize("name", SLICED_BACKENDS)
@pytest.mark.parametrize(
    "lines",
    [
        np.array([3, -1, 5]),
        np.append(np.arange(2 * CAP), -1),
        np.arange(200).reshape(2, 100),
        np.arange(3 * CAP).reshape(3, CAP),
    ],
    ids=["negative_within", "negative_beyond", "2d_within", "2d_beyond"],
)
def test_invalid_vectors_raise_on_either_side_of_the_cap(platform, name, lines):
    """A bad vector is refused before any of it is accounted."""
    backend = make_backend(platform, name)
    before = model_state(backend)
    with pytest.raises(ValueError):
        backend.access(lines, AccessKind.LLC_READ, AccessContext())
    assert counter_state(backend) == (Traffic(), TagStats(), 0.0)
    assert model_state(backend) == before
