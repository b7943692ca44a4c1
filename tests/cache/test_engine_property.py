"""Randomized bit-exactness: closed-form engines vs scalar references.

Drives every production cache model — direct-mapped, sector,
set-associative, and the three research variants — through thousands of
randomized batches (uniform, high-collision, adversarial all-same-set,
and runs of repeated hot lines) and asserts per-batch traffic and tag
counters plus cache state match the model's one-access-at-a-time oracle
in :mod:`repro.cache.flow` exactly.

Together with ``tests/cache/test_equivalence.py`` (hypothesis-driven)
this is the evidence that the closed-form duplicate-resolution
recurrences in :mod:`repro.cache.engine` are bit-for-bit equivalent to
serial processing.  Runs of consecutive lines, which the engine indexes
by slice instead of by a set-index array, get their own Hypothesis
sweep against the same oracles, with full state compared after every
batch.  Log-append-shaped batches, whose sets mostly occur once and
which the engine splits into a sort-free singleton part and a sorted
remainder, get a seeded sweep of their own through all eight production
models, also with full state compared after every batch.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    BypassCache,
    DirectMappedCache,
    MissPredictorCache,
    NextLinePrefetchCache,
    SectorCache,
    SetAssociativeCache,
)
from repro.cache import engine
from repro.cache.flow import (
    ReferenceCache,
    ScalarBypass,
    ScalarLRUCache,
    ScalarMissPredictor,
    ScalarNextLinePrefetch,
    ScalarSectorCache,
)
from repro.experiments.kvtrace import TRACE_SEED, TRACE_SPECS
from repro.perf import segments
from repro.perf.segments import DuplicateProbe, SplitBatch
from repro.traces import generate
from repro.traces.format import OP_GET
from repro.traces.replay import (
    _cache_capacity,
    _expand_lines,
    identity_placement,
    platform_for,
)
from repro.units import MiB

NUM_SETS = 8
LINE_SPAN = NUM_SETS * 6  # six aliases per set
BATCHES_PER_CASE = 880
MAX_BATCH = 14

CONFIGS = [
    pytest.param(ddo, insert, id=f"ddo{int(ddo)}-insert{int(insert)}")
    for ddo in (False, True)
    for insert in (False, True)
]


def draw_batch(rng, scenario, span=LINE_SPAN, num_sets=NUM_SETS):
    n = int(rng.integers(0, MAX_BATCH + 1))
    aliases = span // num_sets
    if scenario == "uniform":
        return rng.integers(0, span, size=n).astype(np.int64)
    if scenario == "high_collision":
        # Two sets only: nearly every batch has duplicate occurrences.
        hot_sets = rng.integers(0, 2, size=n)
        alias = rng.integers(0, aliases, size=n)
        return (hot_sets + alias * num_sets).astype(np.int64)
    if scenario == "all_same_set":
        # One set, random alias per request: the adversarial worst case.
        alias = rng.integers(0, aliases, size=n)
        return (3 % num_sets + alias * num_sets).astype(np.int64)
    if scenario == "repeat_runs":
        # Runs of one repeated hot line (two hot aliases in each of two
        # sets, so runs recur within and across batches), often split by
        # an aliasing line of the same set: the repeats LRU folds.
        out = []
        while len(out) < n:
            hot_set = int(rng.integers(0, 2))
            hot = hot_set + int(rng.integers(0, 2)) * num_sets
            out.extend([hot] * int(rng.integers(1, 5)))
            if rng.random() < 0.6:
                out.append(hot_set + int(rng.integers(0, aliases)) * num_sets)
        return np.array(out[:n], dtype=np.int64)
    raise AssertionError(scenario)


SCENARIOS = ["uniform", "high_collision", "all_same_set", "repeat_runs"]


# ---------------------------------------------------------------------------
# Direct-mapped: closed form vs scalar reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ddo,insert", CONFIGS)
def test_direct_mapped_matches_reference(ddo, insert):
    rng = np.random.default_rng(0xD1CE + ddo * 2 + insert)
    for scenario in SCENARIOS:
        vectorized = DirectMappedCache(
            NUM_SETS * 64, ddo_enabled=ddo, insert_on_write_miss=insert
        )
        reference = ReferenceCache(
            NUM_SETS, ddo_enabled=ddo, insert_on_write_miss=insert
        )
        for step in range(BATCHES_PER_CASE // len(SCENARIOS)):
            lines = draw_batch(rng, scenario)
            if rng.random() < 0.5:
                vt, vg = vectorized.llc_read(lines)
                rt, rg = reference.llc_read(lines)
            else:
                vt, vg = vectorized.llc_write(lines)
                rt, rg = reference.llc_write(lines)
            context = f"{scenario} step {step}: {lines.tolist()}"
            assert vt == rt, f"traffic diverged ({context}): {vt} vs {rt}"
            assert vg == rg, f"tag stats diverged ({context}): {vg} vs {rg}"
        # Final state, line by line over the whole alias span.
        for line in range(LINE_SPAN):
            probe = np.array([line], dtype=np.int64)
            assert bool(vectorized.contains(probe)[0]) == reference.contains(line)
            assert bool(vectorized.is_dirty(probe)[0]) == reference.is_dirty(line)


def test_empty_and_singleton_batches():
    cache = DirectMappedCache(NUM_SETS * 64)
    empty = np.array([], dtype=np.int64)
    traffic, tags = cache.llc_read(empty)
    assert traffic.nvram_reads == 0 and tags.clean_misses == 0
    traffic, tags = cache.llc_write(empty)
    assert traffic.nvram_writes == 0
    traffic, tags = cache.llc_read(np.array([5], dtype=np.int64))
    assert tags.clean_misses == 1


@pytest.mark.parametrize("num_sets", [2047, 65504, 786432])
def test_set_index_is_floor_modulo_on_both_sides_of_its_cut_off(num_sets):
    cut = engine.SET_INDEX_DIVIDE_LINES
    rng = np.random.default_rng(num_sets)
    for n in (0, 1, cut - 1, cut, cut + 1, 1 << 18):
        lines = rng.integers(0, 1 << 36, n, dtype=np.int64)
        index = engine.set_index(lines, num_sets)
        assert index.dtype == np.int64
        np.testing.assert_array_equal(index, lines % num_sets)


@pytest.mark.parametrize(
    "scenario,sort", [("uniform", "_packed_sort"), ("all_same_set", "_stable_sort")]
)
def test_scenarios_reach_both_grouping_sorts(grouping_sorts, scenario, sort):
    """The scenarios above reach both grouping sorts, so a wrong packed
    order fails the bit-exact checks instead of slipping past them."""
    rng = np.random.default_rng(0xD1CE)
    cache = DirectMappedCache(NUM_SETS * 64)
    for _ in range(BATCHES_PER_CASE // len(SCENARIOS)):
        cache.llc_read(draw_batch(rng, scenario))
    assert grouping_sorts[sort] > 0
    if scenario == "all_same_set":
        assert grouping_sorts["_packed_sort"] == 0  # one key: no descents


# ---------------------------------------------------------------------------
# Sector cache: closed form vs scalar reference
# ---------------------------------------------------------------------------


SECTOR_GEOMETRIES = [
    pytest.param(4, 1, id="L4-F1"),
    pytest.param(4, 3, id="L4-F3"),  # footprint clipping at sector end
    pytest.param(8, 8, id="L8-F8"),  # whole-sector footprint
    pytest.param(32, 4, id="L32-F4"),
    pytest.param(64, 64, id="L64-F64"),  # full 64-bit window mask
]


@pytest.mark.parametrize("sector_lines,footprint", SECTOR_GEOMETRIES)
def test_sector_matches_scalar(sector_lines, footprint):
    num_sets = 4
    span = num_sets * 3 * sector_lines  # three sector aliases per set
    rng = np.random.default_rng(0x5EC + sector_lines * 64 + footprint)
    for scenario in SCENARIOS:
        vectorized = SectorCache(
            num_sets * sector_lines * 64,
            sector_lines=sector_lines, footprint=footprint,
        )
        scalar = ScalarSectorCache(num_sets, sector_lines, footprint)
        for step in range(120):
            if scenario == "all_same_set":
                # Same sector-set: random aliasing sectors, random offsets
                # (exercises run splits and footprint fills within one set).
                n = int(rng.integers(0, MAX_BATCH + 1))
                alias = rng.integers(0, 3, size=n) * num_sets
                offs = rng.integers(0, sector_lines, size=n)
                lines = (alias * sector_lines + offs).astype(np.int64)
            else:
                lines = draw_batch(
                    rng, scenario, span=span, num_sets=num_sets * sector_lines
                )
            if rng.random() < 0.5:
                vt, vg = vectorized.llc_read(lines)
                st_, sg = scalar.llc_read(lines)
            else:
                vt, vg = vectorized.llc_write(lines)
                st_, sg = scalar.llc_write(lines)
            context = f"{scenario} step {step}: {lines.tolist()}"
            assert vt == st_, f"traffic diverged ({context}): {vt} vs {st_}"
            assert vg == sg, f"tag stats diverged ({context}): {vg} vs {sg}"
        vec_contains = vectorized.contains(np.arange(span, dtype=np.int64))
        for line in range(span):
            assert bool(vec_contains[line]) == scalar.contains(line)


@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["read", "write"]),
            st.lists(st.integers(min_value=0, max_value=95), max_size=10),
        ),
        min_size=1,
        max_size=8,
    ),
    footprint=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=200, deadline=None)
def test_sector_footprint_fill_property(data, footprint):
    """Hypothesis sweep of the bounded fill-resolution loop: interleaved
    reads/writes over two sets x three sector aliases, tiny sectors so
    hits on unfilled offsets (the case with no closed form) are common."""
    sector_lines, num_sets = 8, 2
    vectorized = SectorCache(
        num_sets * sector_lines * 64, sector_lines=sector_lines, footprint=footprint
    )
    scalar = ScalarSectorCache(num_sets, sector_lines, footprint)
    for kind, batch in data:
        lines = np.array(batch, dtype=np.int64)
        if kind == "read":
            vt, vg = vectorized.llc_read(lines)
            st_, sg = scalar.llc_read(batch)
        else:
            vt, vg = vectorized.llc_write(lines)
            st_, sg = scalar.llc_write(batch)
        assert vt == st_, f"traffic diverged on {kind} {batch}: {vt} vs {st_}"
        assert vg == sg, f"tags diverged on {kind} {batch}: {vg} vs {sg}"
    for line in range(96):
        assert bool(vectorized.contains(np.array([line]))[0]) == scalar.contains(line)


# ---------------------------------------------------------------------------
# Set-associative LRU: run-folding engine vs scalar LRU
# ---------------------------------------------------------------------------


def lru_sets(cache):
    """Each set's resident lines as (tag, dirty, known-resident), least
    recent first: the order of the stamps, not their values."""
    state = []
    for index in range(cache.num_sets):
        ways = np.argsort(cache._stamp[index])
        state.append([
            (tag, dirty, known)
            for tag, dirty, known in zip(
                cache._tags[index, ways].tolist(),
                cache._dirty[index, ways].tolist(),
                cache._known_resident[index, ways].tolist(),
            )
            if tag >= 0
        ])
    return state


@pytest.mark.parametrize("ddo", [False, True], ids=["ddo0", "ddo1"])
@pytest.mark.parametrize("ways", [1, 2, 8])
def test_setassoc_matches_scalar_lru(ways, ddo):
    """Folding same-line repeats into their run's head must leave every
    set's recency order exactly as one access at a time would."""
    num_sets = 4
    span = num_sets * ways * 3
    rng = np.random.default_rng(0xA550 + ways)
    for scenario in SCENARIOS:
        vectorized = SetAssociativeCache(num_sets * ways * 64, ways=ways, ddo_enabled=ddo)
        scalar = ScalarLRUCache(num_sets, ways, ddo_enabled=ddo)
        for step in range(150):
            lines = draw_batch(rng, scenario, span=span, num_sets=num_sets)
            if rng.random() < 0.5:
                vt, vg = vectorized.llc_read(lines)
                st_, sg = scalar.llc_read(lines)
            else:
                vt, vg = vectorized.llc_write(lines)
                st_, sg = scalar.llc_write(lines)
            context = f"{scenario} step {step}: {lines.tolist()}"
            assert vt == st_, f"traffic diverged ({context}): {vt} vs {st_}"
            assert vg == sg, f"tag stats diverged ({context}): {vg} vs {sg}"
            expected = [
                [astuple(entry) for entry in scalar.bucket(index)]
                for index in range(num_sets)
            ]
            assert lru_sets(vectorized) == expected, f"state diverged ({context})"


# ---------------------------------------------------------------------------
# Research variants: engine-level hooks vs scalar references
# ---------------------------------------------------------------------------


VARIANT_CASES = [
    pytest.param(
        lambda cap, seed, a=a: MissPredictorCache(cap, accuracy=a, seed=seed),
        lambda ns, seed, a=a: ScalarMissPredictor(ns, accuracy=a, seed=seed),
        id=f"predictor-{a}",
    )
    for a in (0.0, 0.3, 1.0)
] + [
    pytest.param(
        lambda cap, seed, p=p: BypassCache(cap, insert_probability=p, seed=seed),
        lambda ns, seed, p=p: ScalarBypass(ns, insert_probability=p, seed=seed),
        id=f"bypass-{p}",
    )
    for p in (0.0, 0.5, 1.0)
] + [
    pytest.param(
        lambda cap, seed: NextLinePrefetchCache(cap),
        lambda ns, seed: ScalarNextLinePrefetch(ns),
        id="prefetch",
    )
]


@pytest.mark.parametrize("make_vectorized,make_scalar", VARIANT_CASES)
def test_research_variants_match_scalar(make_vectorized, make_scalar):
    """Bit-exact equivalence for all three research variants, including
    segmented batches with duplicates — the variants draw their random
    coins once per batch in request order, same as the references."""
    rng = np.random.default_rng(0x0B5E)
    for scenario in SCENARIOS:
        seed = int(rng.integers(0, 2**31))
        vectorized = make_vectorized(NUM_SETS * 64, seed)
        scalar = make_scalar(NUM_SETS, seed)
        for step in range(150):
            lines = draw_batch(rng, scenario)
            if rng.random() < 0.7:
                vt, vg = vectorized.llc_read(lines)
                st_, sg = scalar.llc_read(lines)
            else:
                vt, vg = vectorized.llc_write(lines)
                st_, sg = scalar.llc_write(lines)
            context = f"{scenario} step {step}: {lines.tolist()}"
            assert vt == st_, f"traffic diverged ({context}): {vt} vs {st_}"
            assert vg == sg, f"tag stats diverged ({context}): {vg} vs {sg}"
        for line in range(LINE_SPAN):
            probe = np.array([line], dtype=np.int64)
            assert bool(vectorized.contains(probe)[0]) == scalar.contains(line)


# ---------------------------------------------------------------------------
# Sortless fast path: every model, every request path
# ---------------------------------------------------------------------------


def permuted_sets(lines_per_set):
    """Every set once, in random order: the probe's scatter/gather
    proves the batch collision-free."""
    return lambda cache: np.random.default_rng(0).permutation(cache.num_sets) * lines_per_set


def ascending(n, stride):
    """``n`` strictly increasing lines ``stride`` apart, a tensor's
    sampled lines: the probe proves them distinct by order, and with a
    key space above 64 slots per line it has no affordable scratch.
    With stride 1 they are a contiguous run, which needs no probe."""
    return lambda cache: cache.num_sets // 3 + np.arange(0, n * stride, stride)


def consecutive(n, wrap=False):
    """``n`` consecutive lines, a tensor's unsampled lines: their sets
    are one range or, with ``wrap``, a range that wraps past the last set
    (one descent, which the probe proves by rotation)."""
    return lambda cache: (cache.num_sets - n // 2 if wrap else cache.num_sets // 3) + np.arange(n)


SORTLESS_CASES = [
    pytest.param(lambda: DirectMappedCache(NUM_SETS * 64), permuted_sets(1), id="direct_mapped"),
    pytest.param(
        lambda: DirectMappedCache(
            NUM_SETS * 64, ddo_enabled=False, insert_on_write_miss=False
        ),
        permuted_sets(1),
        id="write_around_no_ddo",
    ),
    pytest.param(
        lambda: SectorCache(NUM_SETS * 4 * 64, sector_lines=4, footprint=2),
        permuted_sets(4),
        id="sector",
    ),
    pytest.param(
        lambda: SetAssociativeCache(NUM_SETS * 2 * 64, ways=2), permuted_sets(1), id="set_assoc"
    ),
    pytest.param(
        lambda: BypassCache(NUM_SETS * 64, insert_probability=0.5), permuted_sets(1), id="bypass"
    ),
    pytest.param(
        lambda: MissPredictorCache(NUM_SETS * 64, accuracy=0.5), permuted_sets(1), id="predictor"
    ),
    pytest.param(lambda: NextLinePrefetchCache(NUM_SETS * 64), permuted_sets(1), id="prefetch"),
    # Production geometry (the quick CNN platform's 786,432 sets): the
    # small ascending batches the NN executor sends, too small for scratch.
    pytest.param(
        lambda: DirectMappedCache(48 * MiB), ascending(137, 16), id="direct_mapped_48MiB_ordered"
    ),
    pytest.param(
        lambda: SetAssociativeCache(48 * MiB, ways=8),
        ascending(137, 16),
        id="set_assoc_48MiB_ordered",
    ),
    pytest.param(
        lambda: NextLinePrefetchCache(48 * MiB), ascending(2400, 1), id="prefetch_48MiB_ordered"
    ),
    # Unsampled tensors: contiguous set ranges, and one that wraps.
    pytest.param(
        lambda: DirectMappedCache(48 * MiB), consecutive(2400), id="direct_mapped_48MiB_contiguous"
    ),
    pytest.param(
        lambda: DirectMappedCache(48 * MiB, ddo_enabled=False, insert_on_write_miss=False),
        consecutive(2400),
        id="write_around_no_ddo_48MiB_contiguous",
    ),
    pytest.param(
        lambda: SetAssociativeCache(48 * MiB, ways=8),
        consecutive(2400),
        id="set_assoc_48MiB_contiguous",
    ),
    pytest.param(
        lambda: DirectMappedCache(48 * MiB),
        consecutive(2400, wrap=True),
        id="direct_mapped_48MiB_wrapping",
    ),
]


@pytest.mark.parametrize("make_cache,make_batch", SORTLESS_CASES)
def test_collision_free_batches_take_no_grouping_sort(grouping_sorts, make_cache, make_batch):
    """A batch whose requests all map to distinct sets is grouped by the
    duplicate probe alone, with no sort, on every request path; a batch
    that repeats a set is the control that shows the spy is live.  An
    ascending batch is proven by order, so the probe allocates no
    scratch for it."""
    cache = make_cache()
    distinct = make_batch(cache)
    ordered = bool((np.diff(distinct) > 0).all())
    probe = cache._segmenter._probe
    for request in (cache.llc_read, cache.llc_write):
        request(distinct.copy())
        assert sum(grouping_sorts.values()) == 0, request
        if ordered:
            assert probe._scratch is None, request
    cache.llc_read(np.append(distinct, distinct[0]))
    assert sum(grouping_sorts.values()) >= 1


def memoized(cache, lines):
    """The grouping ``cache``'s segmenter holds for the frozen ``lines``."""
    return cache._segmenter._memo[id(lines)][1]


@pytest.mark.parametrize("make_cache,make_batch", SORTLESS_CASES)
def test_collision_free_closed_forms_build_no_grouping_arrays(make_cache, make_batch):
    """The collision-free closed forms read only the batch and its set
    indices, so the identity grouping's per-line arrays (``order``,
    ``first_pos``, ``last_pos``) are never built on the read and write
    paths."""
    cache = make_cache()
    batch = make_batch(cache)
    batch.flags.writeable = False  # the segmenter keeps its grouping
    cache.llc_read(batch)
    cache.llc_write(batch)
    seg = memoized(cache, batch)
    assert seg.collision_free
    assert all(built is None for built in (seg._order, seg._first_pos, seg._last_pos))


# ---------------------------------------------------------------------------
# Contiguous batches: state indexed by slice
# ---------------------------------------------------------------------------


SLICE_MODELS = [
    pytest.param(lambda: DirectMappedCache(48 * MiB), id="direct_mapped"),
    pytest.param(
        lambda: DirectMappedCache(48 * MiB, ddo_enabled=False, insert_on_write_miss=False),
        id="write_around_no_ddo",
    ),
    pytest.param(lambda: MissPredictorCache(48 * MiB, accuracy=0.5), id="predictor"),
]


@pytest.mark.parametrize("wrap", [False, True], ids=["contiguous", "wrapping"])
@pytest.mark.parametrize("make_cache", SLICE_MODELS)
def test_contiguous_batches_index_state_by_slice(grouping_sorts, monkeypatch, make_cache, wrap):
    """At the production geometry, a run of consecutive lines whose sets
    do not wrap is grouped as a slice on ``llc_read`` and ``llc_write``:
    no per-line set-index array is built, and no probe call or sort is
    made.  One whose sets wrap takes the set-index array and the probe,
    which proves it by rotation, so it does not sort either."""
    segs, probes = [], []
    real_segment, real_probe = engine.segment, DuplicateProbe.collision_free

    def spy_segment(keys, probe=None):
        segs.append(real_segment(keys, probe))
        return segs[-1]

    def spy_probe(self, keys):
        probes.append(keys.size)
        return real_probe(self, keys)

    monkeypatch.setattr(engine, "segment", spy_segment)
    monkeypatch.setattr(DuplicateProbe, "collision_free", spy_probe)
    cache = make_cache()
    batch = consecutive(2400, wrap)(cache)
    cache.llc_read(batch.copy())
    cache.llc_write(batch.copy())
    assert len(segs) == 2 and all(seg.collision_free for seg in segs)
    assert sum(grouping_sorts.values()) == 0
    if wrap:
        assert all(isinstance(seg.index, np.ndarray) for seg in segs)
        assert probes == [2400, 2400]
        assert cache._segmenter._probe._scratch is None
    else:
        first_set = cache.num_sets // 3
        assert all(seg.index == slice(first_set, first_set + 2400) for seg in segs)
        assert all(seg._keys is None for seg in segs)
        assert probes == []


CONTIGUOUS_SETS = 16
CONTIGUOUS_SPAN = CONTIGUOUS_SETS * 4  # four aliases per set

CONTIGUOUS_MODELS = [
    pytest.param(
        lambda ddo=ddo, insert=insert: DirectMappedCache(
            CONTIGUOUS_SETS * 64, ddo_enabled=ddo, insert_on_write_miss=insert
        ),
        lambda ddo=ddo, insert=insert: ReferenceCache(
            CONTIGUOUS_SETS, ddo_enabled=ddo, insert_on_write_miss=insert
        ),
        id=f"direct_mapped-ddo{int(ddo)}-insert{int(insert)}",
    )
    for ddo in (False, True)
    for insert in (False, True)
] + [
    pytest.param(
        lambda: SetAssociativeCache(CONTIGUOUS_SETS * 2 * 64, ways=2),
        lambda: ScalarLRUCache(CONTIGUOUS_SETS, 2),
        id="set_assoc",
    ),
    pytest.param(
        lambda: MissPredictorCache(CONTIGUOUS_SETS * 64, accuracy=0.5, seed=5),
        lambda: ScalarMissPredictor(CONTIGUOUS_SETS, accuracy=0.5, seed=5),
        id="predictor",
    ),
    pytest.param(
        lambda: BypassCache(CONTIGUOUS_SETS * 64, insert_probability=0.5, seed=5),
        lambda: ScalarBypass(CONTIGUOUS_SETS, insert_probability=0.5, seed=5),
        id="bypass",
    ),
    pytest.param(
        lambda: NextLinePrefetchCache(CONTIGUOUS_SETS * 64),
        lambda: ScalarNextLinePrefetch(CONTIGUOUS_SETS),
        id="prefetch",
    ),
]


def full_state(cache):
    """Every set's state: its LRU stack for a set-associative cache, else
    its (tag, dirty, known-resident), with ``-1`` for an empty set."""
    if isinstance(cache, SetAssociativeCache):
        return lru_sets(cache)
    return list(zip(
        cache._tags.tolist(), cache._dirty.tolist(), cache._known_resident.tolist()
    ))


def oracle_state(oracle):
    if isinstance(oracle, ScalarLRUCache):
        return [
            [astuple(entry) for entry in oracle.bucket(index)]
            for index in range(oracle.num_sets)
        ]
    empty = (-1, False, False)
    return [
        astuple(oracle._sets[index]) if index in oracle._sets else empty
        for index in range(oracle.num_sets)
    ]


#: A read-then-write over one frozen run of consecutive lines (the RFO
#: and write-back of an unsampled tensor), or a random batch.
contiguous_step = st.tuples(
    st.just("rmw"),
    st.integers(0, CONTIGUOUS_SPAN - 1),
    st.integers(1, CONTIGUOUS_SETS),
)
random_step = st.tuples(
    st.sampled_from(["read", "write"]),
    st.lists(st.integers(0, CONTIGUOUS_SPAN - 1), max_size=12),
)


@pytest.mark.parametrize("make_cache,make_oracle", CONTIGUOUS_MODELS)
@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.one_of(contiguous_step, random_step), min_size=1, max_size=8))
def test_contiguous_batches_match_the_oracle(make_cache, make_oracle, steps):
    """Every model whose sets are ``lines % num_sets``, fed runs of
    consecutive lines from random starts (some wrapping past the last
    set, which the slice path must leave to the array path) with random
    batches mixed in, matches its oracle in traffic, tag stats and full
    state after every batch.  The write pass reuses the read pass's
    grouping, as an RFO and write-back do."""
    cache, oracle = make_cache(), make_oracle()
    for step in steps:
        if step[0] == "rmw":
            _, start, n = step
            lines = np.arange(start, start + n, dtype=np.int64)
            lines.flags.writeable = False
            passes = [("read", lines), ("write", lines)]
        else:
            passes = [(step[0], np.array(step[1], dtype=np.int64))]
        for kind, lines in passes:
            got = getattr(cache, f"llc_{kind}")(lines)
            want = getattr(oracle, f"llc_{kind}")(lines)
            context = f"{kind} {lines.tolist()}"
            assert got == want, f"counters diverged ({context}): {got} vs {want}"
            assert full_state(cache) == oracle_state(oracle), f"state diverged ({context})"
        if step[0] == "rmw":
            seg = memoized(cache, lines)
            assert isinstance(seg.index, slice) == (start % CONTIGUOUS_SETS + n <= CONTIGUOUS_SETS)


# ---------------------------------------------------------------------------
# Nearly distinct batches: singletons and repeats grouped apart
# ---------------------------------------------------------------------------


NEARLY_SETS = 256
NEARLY_ALIASES = 4
NEARLY_SECTOR_LINES = 4


def nearly_distinct_units(rng):
    """A log-append-shaped batch of set-granular units: a few ascending
    runs of consecutive units over many sets, so most sets occur once,
    plus a few echoes inserted at random places.  An echo re-touches a
    short stretch of a run, either the same units (a repeated line) or
    the same sets at another alias (different lines of the same set)."""
    runs = [
        int(rng.integers(0, NEARLY_SETS * NEARLY_ALIASES)) + np.arange(int(rng.integers(6, 24)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    units = np.concatenate(runs)
    for _ in range(int(rng.integers(1, 4))):
        start = int(rng.integers(0, units.size))
        echo = units[start : start + int(rng.integers(1, 4))]
        if rng.random() < 0.5:
            echo = echo + NEARLY_SETS * int(rng.integers(1, NEARLY_ALIASES))
        at = int(rng.integers(0, units.size + 1))
        units = np.concatenate((units[:at], echo, units[at:]))
    return units % (NEARLY_SETS * NEARLY_ALIASES)


def sector_state(cache):
    return list(zip(cache._tags.tolist(), cache._valid.tolist(), cache._dirty.tolist()))


def sector_oracle_state(oracle):
    def bits(offsets):
        return sum(1 << offset for offset in offsets)

    return [
        (entry.tag, bits(entry.valid), bits(entry.dirty)) if entry else (-1, 0, 0)
        for entry in (oracle._sets.get(index) for index in range(oracle.num_sets))
    ]


def rng_state(model):
    """The model's coin stream position, for the designs that draw."""
    rng = getattr(model, "_rng", None)
    return None if rng is None else rng.bit_generator.state


NEARLY_MODELS = [
    pytest.param(
        lambda: DirectMappedCache(NEARLY_SETS * 64),
        lambda: ReferenceCache(NEARLY_SETS),
        id="direct_mapped",
    ),
    pytest.param(
        lambda: DirectMappedCache(NEARLY_SETS * 64, ddo_enabled=False),
        lambda: ReferenceCache(NEARLY_SETS, ddo_enabled=False),
        id="no_ddo",
    ),
    pytest.param(
        lambda: DirectMappedCache(NEARLY_SETS * 64, insert_on_write_miss=False),
        lambda: ReferenceCache(NEARLY_SETS, insert_on_write_miss=False),
        id="write_around",
    ),
    pytest.param(
        lambda: SetAssociativeCache(NEARLY_SETS * 4 * 64, ways=4),
        lambda: ScalarLRUCache(NEARLY_SETS, 4),
        id="setassoc_lru",
    ),
    pytest.param(
        lambda: SectorCache(
            NEARLY_SETS * NEARLY_SECTOR_LINES * 64, sector_lines=NEARLY_SECTOR_LINES, footprint=2
        ),
        lambda: ScalarSectorCache(NEARLY_SETS, NEARLY_SECTOR_LINES, 2),
        id="sector",
    ),
    pytest.param(
        lambda: MissPredictorCache(NEARLY_SETS * 64, accuracy=0.5, seed=3),
        lambda: ScalarMissPredictor(NEARLY_SETS, accuracy=0.5, seed=3),
        id="miss_predictor",
    ),
    pytest.param(
        lambda: BypassCache(NEARLY_SETS * 64, insert_probability=0.5, seed=3),
        lambda: ScalarBypass(NEARLY_SETS, insert_probability=0.5, seed=3),
        id="bypass",
    ),
    pytest.param(
        lambda: NextLinePrefetchCache(NEARLY_SETS * 64),
        lambda: ScalarNextLinePrefetch(NEARLY_SETS),
        id="prefetch",
    ),
]


@pytest.mark.parametrize("make_cache,make_oracle", NEARLY_MODELS)
def test_nearly_distinct_batches_match_the_oracle(monkeypatch, make_cache, make_oracle):
    """Log-append-shaped batches, whose sets mostly occur once, reach the
    split grouping on every production model, and each model matches its
    oracle in traffic, tag stats and full state after every batch: the
    per-set (tag, dirty, known-resident) or LRU stack, the sector
    bitmaps, and the predictor's and bypass's coin streams.  Some batches
    are frozen and sent as a read then a write, so the write pass reuses
    the read pass's split."""
    splits = []
    real_segment = engine.segment

    def spy_segment(keys, probe=None):
        seg = real_segment(keys, probe)
        splits.append(isinstance(seg, SplitBatch))
        return seg

    monkeypatch.setattr(engine, "segment", spy_segment)
    cache, oracle = make_cache(), make_oracle()
    sector = isinstance(cache, SectorCache)
    state = sector_state if sector else full_state
    want_state = sector_oracle_state if sector else oracle_state
    rng = np.random.default_rng(0x1A)
    for step in range(120):
        units = nearly_distinct_units(rng)
        if sector:  # one line per unit's sector, at a random offset
            units = units * NEARLY_SECTOR_LINES + rng.integers(0, NEARLY_SECTOR_LINES, units.size)
        lines = units.astype(np.int64)
        if step % 3 == 0:
            lines.flags.writeable = False
            passes = ["read", "write"]
        else:
            passes = ["read" if rng.random() < 0.6 else "write"]
        for kind in passes:
            got = getattr(cache, f"llc_{kind}")(lines)
            want = getattr(oracle, f"llc_{kind}")(lines)
            context = f"step {step} {kind} {lines.tolist()}"
            assert got == want, f"counters diverged ({context}): {got} vs {want}"
            assert state(cache) == want_state(oracle), f"state diverged ({context})"
            assert rng_state(cache) == rng_state(oracle), f"coins diverged ({context})"
    assert sum(splits) >= 80, f"{sum(splits)} of {len(splits)} groupings split"


def test_first_logappend_write_window_sorts_only_its_colliding_positions(monkeypatch):
    """kv_replay's first seed-7 log-append write window, on its
    524,256-set direct-mapped cache: about 97 % of its positions hold a
    set that occurs once, so the write pass sorts only the positions
    whose set repeats, in one sort."""
    sorted_sizes = []
    for name in ("_packed_sort", "_stable_sort"):
        real = getattr(segments, name)

        def spy(keys, *args, _real=real):
            sorted_sizes.append(keys.size)
            return _real(keys, *args)

        monkeypatch.setattr(segments, name, spy)
    trace = generate("logappend", seed=TRACE_SEED, **TRACE_SPECS["logappend"]["full"])
    ops, keys, sizes = next(trace.batches())
    writes = ops != OP_GET
    lines = _expand_lines(keys[writes], sizes[writes], identity_placement(trace))
    num_sets = _cache_capacity(platform_for(trace)) // 64
    assert num_sets == 524_256
    per_set = np.bincount(lines % num_sets, minlength=num_sets)
    colliding = int(np.count_nonzero(per_set[lines % num_sets] > 1))
    assert 0 < colliding <= 0.05 * lines.size
    DirectMappedCache(num_sets * 64).llc_write(lines)
    assert sorted_sizes == [colliding]
