"""Tests for the 1LM and 2LM memory backends."""

import contextlib
from dataclasses import fields

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
from repro.config import default_platform
from repro.memsys import AddressMap, CachedBackend, FlatBackend
from repro.memsys import backends as backends_module
from repro.perf.counters import AccessContext, AccessKind, TagStats, Traffic
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
    """Outside an epoch an access charges the counter bank at once, so a
    fresh backend's bank holds exactly its first access's traffic."""

    def test_routes_by_address(self, flat):
        flat.access(np.array([0, 500, 1500]), AccessKind.LLC_READ)
        assert flat.counters.traffic.dram_reads == 2
        assert flat.counters.traffic.nvram_reads == 1
        assert flat.counters.traffic.demand_reads == 3

    def test_writes_route_too(self, flat):
        flat.access(np.array([999, 1000]), AccessKind.LLC_WRITE)
        assert flat.counters.traffic.dram_writes == 1
        assert flat.counters.traffic.nvram_writes == 1

    def test_no_amplification(self, flat):
        flat.access(np.arange(2000), AccessKind.LLC_READ)
        assert flat.counters.traffic.amplification == 1.0

    def test_no_tag_events(self, flat):
        flat.access(np.arange(10), AccessKind.LLC_READ)
        assert flat.counters.tags.checks == 0

    def test_advances_clock(self, flat):
        with flat.epoch(AccessContext()):
            flat.access(np.arange(2000), AccessKind.LLC_READ)
        assert flat.counters.time > 0

    def test_access_leaves_the_clock(self, flat):
        """Only closing an epoch charges time."""
        flat.access(np.arange(2000), AccessKind.LLC_READ)
        assert flat.counters.traffic.demand_reads == 2000
        assert flat.counters.time == 0


class TestCachedBackend:
    def test_records_tag_events(self, cached):
        lines = np.arange(100)
        cached.access(lines, AccessKind.LLC_READ)
        assert cached.counters.tags.clean_misses == 100
        cached.access(lines, AccessKind.LLC_READ)
        assert cached.counters.tags.hits == 100

    def test_miss_amplification(self, cached):
        cached.access(np.arange(100), AccessKind.LLC_READ)
        assert cached.counters.traffic.amplification == 3.0  # Table I clean read miss

    def test_slower_than_flat_on_misses(self, platform, cached):
        amap = AddressMap.nvram_only(10_000)
        flat = FlatBackend(platform, amap)
        lines = np.arange(10_000)
        ctx = AccessContext(threads=24)
        for backend in (flat, cached):
            with backend.epoch(ctx):
                backend.access(lines, AccessKind.LLC_READ)
        assert cached.counters.time > flat.counters.time


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
        backend.access(lines, kind)


class TestEpochs:
    def test_epoch_pools_traffic_time(self, cached):
        ctx = AccessContext(threads=24)
        with cached.epoch(ctx) as epoch:
            cached.access(np.arange(0, 500), AccessKind.LLC_READ)
            cached.access(np.arange(500, 1000), AccessKind.LLC_READ)
        assert epoch.traffic.demand_reads == 1000
        assert epoch.seconds > 0
        assert cached.counters.time == pytest.approx(epoch.seconds)

    def test_epoch_overlaps_read_and_write_demand(self, platform):
        amap = AddressMap.nvram_only(100_000)
        ctx = AccessContext(threads=4)
        lines = np.arange(50_000)

        serial = FlatBackend(platform, amap)
        for kind in (AccessKind.LLC_READ, AccessKind.LLC_WRITE):
            with serial.epoch(ctx):
                serial.access(lines, kind)

        pooled = FlatBackend(platform, amap)
        with pooled.epoch(ctx) as epoch:
            pooled.access(lines, AccessKind.LLC_READ)
            pooled.access(lines, AccessKind.LLC_WRITE)
        assert epoch.seconds < serial.counters.time

    def test_roofline_compute_floor(self, cached):
        ctx = AccessContext()
        with cached.epoch(ctx) as epoch:
            cached.access(np.arange(10), AccessKind.LLC_READ)
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
            cached.access(np.arange(5), AccessKind.LLC_READ)
        assert epoch.traffic.demand_reads == 5

    def test_epoch_that_raises_charges_its_traffic_but_no_time(self, cached):
        ctx = AccessContext()
        with pytest.raises(ValueError):
            with cached.epoch(ctx) as epoch:
                cached.access(np.arange(10), AccessKind.LLC_READ)
                raise ValueError("boom")
        assert cached.counters.traffic == epoch.traffic
        assert cached.counters.traffic.demand_reads == 10
        assert cached.counters.time == 0.0

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


def charged(backend, epoch):
    """What accesses have charged so far: the open epoch's pooled traffic,
    or, outside an epoch, the counter bank and its clock."""
    if epoch is not None:
        return epoch.traffic.copy(), epoch.tags.copy(), 0.0
    return counter_state(backend)


def replay(backend, stream, mode, weight, sliced):
    """Feed ``stream`` through ``backend``: each vector whole, or (when
    ``sliced``) one call per ``CAP``-line slice.  Returns what each vector
    charged (its calls' charges together), and the epoch if one was open."""
    ctx = AccessContext(threads=8)
    charges = []
    with contextlib.ExitStack() as stack:
        epoch = stack.enter_context(backend.epoch(ctx)) if mode == "epoch" else None
        for lines, kind in stream:
            parts = [lines[b : b + CAP] for b in range(0, lines.size, CAP)] if sliced else [lines]
            traffic, tags, time = charged(backend, epoch)
            for part in parts:
                backend.access(part, kind, weight=weight)
            now_traffic, now_tags, now_time = charged(backend, epoch)
            charges.append((now_traffic.sub(traffic), now_tags.sub(tags), now_time - time))
    return charges, epoch


@pytest.mark.usefixtures("small_cap")
@pytest.mark.parametrize("name", SLICED_BACKENDS)
@pytest.mark.parametrize("order", ["random", "ascending"])
@pytest.mark.parametrize("length", [3 * CAP, 3 * CAP + 101], ids=["k_cap", "k_cap_plus_r"])
@pytest.mark.parametrize("weight", [1, 16])
@pytest.mark.parametrize("mode", ["epoch", "outside"])
def test_long_vector_equals_its_slices(platform, name, order, length, weight, mode):
    """One ``access`` of a vector longer than the cap leaves the counters
    and the model exactly as a twin fed its slices one call at a time,
    and charges the epoch, or outside one the counter bank, the slices'
    sum.  Outside an epoch the clock does not move."""
    stream = request_stream(order, length)
    whole, twin = make_backend(platform, name), make_backend(platform, name)
    whole_charges, whole_epoch = replay(whole, stream, mode, weight, sliced=False)
    twin_charges, twin_epoch = replay(twin, stream, mode, weight, sliced=True)
    assert whole_charges == twin_charges
    assert counter_state(whole) == counter_state(twin)
    assert model_state(whole) == model_state(twin)
    if mode == "epoch":
        assert (whole_epoch.traffic, whole_epoch.tags, whole_epoch.seconds) == (
            twin_epoch.traffic,
            twin_epoch.tags,
            twin_epoch.seconds,
        )
    else:
        assert all(time == 0.0 for _, _, time in whole_charges)
        assert whole.counters.time == 0.0
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
        backend.access(lines, kind)
        assert seen.pop() is lines
    backend.access(np.arange(2 * CAP + 5, dtype=np.int64), kind)
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
        backend.access(lines, AccessKind.LLC_READ)
    assert counter_state(backend) == (Traffic(), TagStats(), 0.0)
    assert model_state(backend) == before


# -- charging: the epoch per access, the counter bank per epoch -------------

CACHED_BACKENDS = [*sorted(MODEL_FACTORIES), "no_ddo"]


def times(counts, weight):
    """``counts`` with every field multiplied by ``weight``."""
    return type(counts)(**{f.name: getattr(counts, f.name) * weight for f in fields(counts)})


def random_mix(rng, runs=8):
    """Runs of accesses, each in one epoch or outside epochs.  Vectors are
    random; some are frozen and read or written again by later accesses,
    as a kernel re-reads a tensor."""
    frozen, mix = [], []
    for _ in range(runs):
        where = str(rng.choice(["epoch", "outside"]))
        accesses = []
        for _ in range(int(rng.integers(1, 5))):
            if frozen and rng.random() < 0.4:
                lines = frozen[int(rng.integers(len(frozen)))]
            else:
                lines = rng.integers(0, 5000, size=int(rng.integers(0, 400)), dtype=np.int64)
                if rng.random() < 0.5:
                    lines.flags.writeable = False
                    frozen.append(lines)
            kind = AccessKind.LLC_READ if rng.random() < 0.5 else AccessKind.LLC_WRITE
            accesses.append((lines, kind))
        mix.append((where, accesses))
    return mix


@pytest.mark.parametrize("name", CACHED_BACKENDS)
@pytest.mark.parametrize("weight", [1, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_access_charges_its_weighted_model_counts(platform, name, weight, seed):
    """Over random mixes of reads and writes, in epochs and outside them,
    each epoch's Traffic/TagStats, the final counter bank and the clock
    equal the sums of a twin model's own ``llc_read``/``llc_write``
    returns times the weight.  Inside an epoch the bank does not move
    until the epoch closes; outside one the clock does not move."""
    backend = make_backend(platform, name)
    model = make_backend(platform, name).cache  # answers each batch directly
    ctx = AccessContext(threads=8)
    traffic, tags, clock = Traffic(), TagStats(), 0.0
    for where, accesses in random_mix(np.random.default_rng(seed)):
        if where == "epoch":
            pooled_traffic, pooled_tags = Traffic(), TagStats()
            with backend.epoch(ctx) as epoch:
                before = counter_state(backend)
                for lines, kind in accesses:
                    backend.access(lines, kind, weight=weight)
                    request = model.llc_read if kind is AccessKind.LLC_READ else model.llc_write
                    counts, tag_counts = request(lines)
                    pooled_traffic += times(counts, weight)
                    pooled_tags += times(tag_counts, weight)
                assert counter_state(backend) == before
            assert (epoch.traffic, epoch.tags) == (pooled_traffic, pooled_tags)
            breakdown = backend.timing.breakdown(pooled_traffic, ctx)
            assert epoch.seconds == max(breakdown.elapsed, breakdown.nvram_device)
            traffic += pooled_traffic
            tags += pooled_tags
            clock += epoch.seconds
            continue
        for lines, kind in accesses:
            backend.access(lines, kind, weight=weight)
            request = model.llc_read if kind is AccessKind.LLC_READ else model.llc_write
            counts, tag_counts = request(lines)
            traffic += times(counts, weight)
            tags += times(tag_counts, weight)
            assert counter_state(backend) == (traffic, tags, clock)
    assert counter_state(backend) == (traffic, tags, clock)
    assert model_state(backend) == model_state(CachedBackend(platform, model))


def test_negative_weight_is_refused_before_the_model_runs(cached):
    before = model_state(cached)
    with pytest.raises(ValueError):
        cached.access(np.arange(10), AccessKind.LLC_READ, weight=-1)
    assert model_state(cached) == before
    assert counter_state(cached) == (Traffic(), TagStats(), 0.0)
