"""Unit tests for the segmented-batch primitives.

Every derived view of :class:`~repro.perf.segments.SegmentedBatch` is
checked against a brute-force per-key computation, the grouping (packed
sort or timsort, as the input picks, with the presortedness cut-off
pinned by value) against ``np.argsort(kind="stable")``, the shared
read-only positions against ``np.arange``, the round decomposition
against the legacy per-round ``np.unique`` loop it replaced, and the
value-run folding of ``rounds(values)`` against brute-force per-key
runs.  The duplicate probe's three proofs (order, rotation, and
scatter/gather) are property-tested with Hypothesis over key spaces on
both sides of its scratch allowance, as are the repeats it locates and
the split of a batch whose keys mostly occur once, and a contiguous
``range`` of keys is checked to group by slice without a probe call or
a per-line key array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BATCH_LINES
from repro.perf import segments as segments_module
from repro.perf.segments import (
    PRESORTED_DESCENTS,
    DuplicateProbe,
    SegmentedBatch,
    SplitBatch,
    positions,
    segment,
)


def legacy_rounds(keys):
    """The superseded decomposition: one np.unique per collision round."""
    remaining = np.arange(keys.size, dtype=np.int64)
    while remaining.size:
        _, first = np.unique(keys[remaining], return_index=True)
        if first.size == remaining.size:
            yield remaining
            return
        first.sort()
        yield remaining[first]
        keep = np.ones(remaining.size, dtype=bool)
        keep[first] = False
        remaining = remaining[keep]


def brute_rank(keys):
    """Occurrence number of each batch position within its key."""
    counts = {}
    out = np.zeros(keys.size, dtype=np.int64)
    for i, key in enumerate(keys.tolist()):
        out[i] = counts.get(key, 0)
        counts[key] = out[i] + 1
    return out


def batches():
    rng = np.random.default_rng(0x5E65)
    yield np.array([], dtype=np.int64)
    yield np.array([3], dtype=np.int64)
    yield np.array([5, 5, 5, 5], dtype=np.int64)  # adversarial: one key
    yield np.array([2, 0, 1, 3], dtype=np.int64)  # collision-free
    yield np.array([4, 1, 4, 2, 1, 4, 0], dtype=np.int64)
    for _ in range(20):
        n = int(rng.integers(0, 64))
        yield rng.integers(0, 8, size=n).astype(np.int64)


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_grouping_invariants(keys):
    seg = segment(keys)
    n = keys.size
    # order is a permutation; the grouped view is key-sorted and stable.
    assert sorted(seg.order.tolist()) == list(range(n))
    np.testing.assert_array_equal(seg.sorted_keys, np.sort(keys, kind="stable"))
    for key in np.unique(keys).tolist():
        positions = seg.order[seg.sorted_keys == key]
        np.testing.assert_array_equal(positions, np.flatnonzero(keys == key))
    # first_pos/last_pos are exactly each segment's ends.
    assert seg.num_segments == np.unique(keys).size
    np.testing.assert_array_equal(seg.leaders, np.unique(keys))
    segments = [np.flatnonzero(seg.sorted_keys == key) for key in np.unique(keys).tolist()]
    assert seg.first_pos.tolist() == [int(s[0]) for s in segments]
    assert seg.last_pos.tolist() == [int(s[-1]) for s in segments]
    assert seg.collision_free == (np.unique(keys).size == n)


def groupings(keys):
    """Every grouping the batch admits: sorted without a key bound,
    sorted with one (the packed sort, unless the keys are nearly
    sorted), and the sort-free identity grouping when they are
    distinct."""
    yield segment(keys)
    yield SegmentedBatch(keys, bound=int(keys.max(initial=0)) + 1)
    if np.unique(keys).size == keys.size:
        yield SegmentedBatch.distinct(keys)


def scan_masks(rng, n):
    """Random, sparse, all-False and all-True sorted-order masks."""
    return [
        rng.random(n) < 0.4,
        rng.random(n) < 0.05,
        np.zeros(n, dtype=bool),
        np.ones(n, dtype=bool),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_segmented_scans_match_brute_force(seed):
    """``first_true``, ``lengths`` and ``last_pos`` against per-segment
    brute force, over colliding and collision-free batches and random,
    all-False and all-True masks, and over a colliding batch longer than
    the shared positions array (:func:`positions`)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    colliding = rng.integers(0, 6, size=n).astype(np.int64)
    distinct = rng.permutation(n).astype(np.int64)
    small_masks = scan_masks(rng, n)
    large = rng.integers(0, 6, size=BATCH_LINES + 1 + seed).astype(np.int64)
    cases = [
        (colliding, small_masks),
        (distinct, small_masks),
        (large, scan_masks(rng, large.size)),
    ]
    for keys, masks in cases:
        size = keys.size
        for seg in groupings(keys):
            grouped = keys[seg.order]
            segments = [np.flatnonzero(grouped == key) for key in seg.leaders.tolist()]
            assert seg.lengths.tolist() == [s.size for s in segments]
            assert seg.last_pos.tolist() == [int(s[-1]) for s in segments]
            assert seg.max_multiplicity == max(s.size for s in segments)
            for mask in masks:
                first = seg.first_true(mask)
                assert first.shape == (seg.num_segments,)
                for got, where in zip(first.tolist(), segments):
                    hits = where[mask[where]]
                    assert got == (int(hits[0]) if hits.size else size)


def test_first_true_on_the_empty_batch():
    empty = np.array([], dtype=np.int64)
    for seg in (segment(empty), SegmentedBatch(empty, bound=8), SegmentedBatch.distinct(empty)):
        assert seg.first_true(np.zeros(0, dtype=bool)).size == 0
        assert seg.lengths.size == 0 and seg.max_multiplicity == 0


def with_descents(rng, n, descents, bound):
    """``n`` keys in ``[0, bound)`` with exactly ``descents`` descents:
    ``descents + 1`` non-decreasing runs, each from 0 up to ``bound - 1``."""
    runs = []
    for size in np.diff(np.linspace(0, n, descents + 2).astype(np.int64)):
        run = np.sort(rng.integers(0, bound, size=size))
        run[0], run[-1] = 0, bound - 1
        runs.append(run)
    keys = np.concatenate(runs)
    assert np.count_nonzero(keys[1:] < keys[:-1]) == descents
    return keys


def packed_cases():
    """(name, keys, bound, whether the packed sort should run)."""
    rng = np.random.default_rng(0xB17)
    yield "random", rng.integers(0, 512, size=3000), 512, True
    yield "random_few_keys", rng.integers(0, 3, size=3000), 3, True
    # Ascending keys that wrap once, as log appends produce.
    yield "nearly_sorted", (100 + np.arange(3000) * 512 // 3000) % 512, 512, False
    yield "all_same", np.full(3000, 7), 8, False
    yield "empty", np.zeros(0, dtype=np.int64), 8, False
    yield "singleton", np.array([5]), 8, False
    for k in (1, 6, 10, 12):
        for n in (1 << k, (1 << k) + 1):  # the packing shift changes here
            keys = rng.integers(0, 64, size=n)
            keys[:2] = (1, 0)  # at least one descent, even for n = 2
            yield f"n{n}", keys, 64, True
    # Keys at the largest bound a 3000-key batch can pack (12 position
    # bits), and just past it, where grouping falls back to timsort.
    limit = 1 << (63 - 12)
    top = limit - rng.integers(1, 100, size=3000)
    yield "at_overflow_bound", top, limit, True
    yield "past_overflow_bound", top + 1, limit + 1, False
    # The presortedness cut-off by value: n // PRESORTED_DESCENTS descents
    # keep timsort, one more takes the packed sort.
    cut = 3000 // PRESORTED_DESCENTS
    yield "at_presorted_cutoff", with_descents(rng, 3000, cut, 512), 512, False
    yield "past_presorted_cutoff", with_descents(rng, 3000, cut + 1, 512), 512, True
    # A B-tree window's shape: ascending runs of about 160 keys, so n/160
    # descents, above n/256 and below n/64.
    yield "btree_shaped", with_descents(rng, 1 << 15, (1 << 15) // 160, 4096), 4096, True


PACKED_CASES = [pytest.param(*case[1:], id=case[0]) for case in packed_cases()]


@pytest.mark.parametrize("keys,bound,packed", PACKED_CASES)
def test_grouping_sort_equals_the_stable_argsort(grouping_sorts, keys, bound, packed):
    keys = keys.astype(np.int64)
    seg = SegmentedBatch(keys, bound=bound)
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(seg.order, order)
    np.testing.assert_array_equal(seg.sorted_keys, keys[order])
    assert seg.order.dtype == order.dtype and seg.sorted_keys.dtype == keys.dtype
    taken = (grouping_sorts["_packed_sort"], grouping_sorts["_stable_sort"])
    assert taken == (int(packed), int(not packed))


@pytest.mark.parametrize(
    "keys,bound,packed",
    [case for case in PACKED_CASES if case.id != "past_overflow_bound"],  # would overflow
)
def test_packed_sort_equals_the_stable_argsort_on_every_shape(keys, bound, packed):
    """The packed sort itself, also on shapes the input routes to timsort."""
    keys = keys.astype(np.int64)
    order, sorted_keys = segments_module._packed_sort(keys, (keys.size - 1).bit_length())
    stable = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, stable)
    np.testing.assert_array_equal(sorted_keys, keys[stable])


def test_positions_are_a_shared_read_only_arange():
    """Up to ``BATCH_LINES``, ``positions`` is a view of one shared
    array; a larger request gets a fresh array and leaves the shared
    one as it was."""
    shared = segments_module._POSITIONS
    assert shared.size == BATCH_LINES and not shared.flags.writeable
    for n in (0, 1, 7, BATCH_LINES):
        got = positions(n)
        np.testing.assert_array_equal(got, np.arange(n))
        assert got.dtype == np.int64 and not got.flags.writeable
        assert n == 0 or np.shares_memory(got, shared)
    big = positions(BATCH_LINES + 5)
    np.testing.assert_array_equal(big, np.arange(BATCH_LINES + 5))
    assert big.dtype == np.int64 and not big.flags.writeable
    assert not np.shares_memory(big, shared)
    assert segments_module._POSITIONS is shared and shared.size == BATCH_LINES
    np.testing.assert_array_equal(shared, np.arange(BATCH_LINES))


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_rounds_match_legacy_decomposition(keys):
    # Pairwise-distinct values make every occurrence its own run.
    rounds = list(segment(keys).rounds(np.arange(keys.size)))
    # A round's keys are pairwise distinct, so only its members matter:
    # rounds list them in key order, the legacy loop in batch order.
    new = [sorted(r.index.tolist()) for r in rounds]
    old = [r.tolist() for r in legacy_rounds(keys)]
    assert new == old
    # Round r is occurrence rank r, matching the brute-force count.
    rank = brute_rank(keys)
    for number, r in enumerate(rounds):
        assert (rank[r.index] == number).all()
        assert (r.last_rank == number).all() and (r.size == 1).all()


def test_rounds_partition_and_distinctness():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 5, size=200).astype(np.int64)
    seen = []
    for rnd in segment(keys).rounds(np.arange(keys.size)):
        chunk = rnd.index
        round_keys = keys[chunk]
        assert np.unique(round_keys).size == round_keys.size  # pairwise distinct
        seen.extend(chunk.tolist())
    assert sorted(seen) == list(range(keys.size))  # exact partition


def test_all_same_key_rounds_are_singletons():
    keys = np.full(9, 4, dtype=np.int64)
    chunks = [c.index.tolist() for c in SegmentedBatch(keys).rounds(np.arange(9))]
    assert chunks == [[i] for i in range(9)]


def check_folded_rounds(keys, values, rounds):
    """Every round has pairwise-distinct keys; each head plus its folded
    repeats is one maximal run of equal values within its key, reported
    with the right size and last rank; together they cover every batch
    position exactly once."""
    covered = []
    for rnd in rounds:
        assert np.unique(keys[rnd.index]).size == rnd.index.size
        for head, last_rank, size in zip(
            rnd.index.tolist(), rnd.last_rank.tolist(), rnd.size.tolist()
        ):
            same_key = np.flatnonzero(keys == keys[head])
            start = int(np.searchsorted(same_key, head))
            run = same_key[start : start + size]
            assert (values[run] == values[head]).all()
            assert start == 0 or values[same_key[start - 1]] != values[head]
            end = start + size
            assert end == same_key.size or values[same_key[end]] != values[head]
            assert last_rank == end - 1
            covered.extend(run.tolist())
    assert sorted(covered) == list(range(keys.size))


def brute_max_runs(keys, values):
    """Largest number of equal-value runs any one key's occurrences form."""
    runs, last = {}, {}
    for key, value in zip(keys.tolist(), values.tolist()):
        if key not in last or last[key] != value:
            runs[key] = runs.get(key, 0) + 1
        last[key] = value
    return max(runs.values(), default=0)


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_value_runs_fold_into_their_heads(keys):
    rng = np.random.default_rng(keys.size)
    values = keys + 16 * rng.integers(0, 2, size=keys.size)  # two values per key
    rounds = list(segment(keys).rounds(values))
    check_folded_rounds(keys, values, rounds)
    assert len(rounds) == brute_max_runs(keys, values)


def test_repeat_runs_resolve_in_run_count_rounds():
    """Regression: 10,000 accesses over 4 keys, each key's occurrences
    forming 3 runs of one repeated value, take 3 rounds — not one per
    occurrence rank (2,500)."""
    num_keys, per_key = 4, 2500
    rng = np.random.default_rng(13)
    values = np.empty(num_keys * per_key, dtype=np.int64)
    for key in range(num_keys):
        cuts = np.sort(rng.choice(np.arange(1, per_key), size=2, replace=False))
        lengths = np.diff(cuts, prepend=0, append=per_key)
        run_values = [key + num_keys, key + 2 * num_keys, key + num_keys]
        values[key::num_keys] = np.repeat(run_values, lengths)  # keys interleaved
    keys = values % num_keys
    seg = segment(keys)
    # One round per occurrence rank when nothing folds.
    assert sum(1 for _ in seg.rounds(np.arange(keys.size))) == per_key
    rounds = list(seg.rounds(values))
    assert len(rounds) == 3
    check_folded_rounds(keys, values, rounds)


# ---------------------------------------------------------------------------
# DuplicateProbe: the ordered proof and the scatter/gather
# ---------------------------------------------------------------------------

SLOTS = DuplicateProbe.MAX_SLOTS_PER_KEY


@st.composite
def probe_cases(draw, distinct, ascending=False):
    """``(keys, space)`` with a key space either within the probe's
    scratch allowance (at most 64 slots per key) or above it."""
    n = draw(st.integers(2, 48))
    affordable = draw(st.booleans())
    low, high = (n, n * SLOTS) if affordable else (n * SLOTS + 1, n * SLOTS * 64)
    space = draw(st.integers(low, high))
    if distinct:
        keys = sorted(draw(st.sets(st.integers(0, space - 1), min_size=n, max_size=n)))
        if not ascending:
            keys = draw(st.permutations(keys))
    else:
        keys = draw(st.lists(st.integers(0, space - 1), min_size=n - 1, max_size=n - 1))
        keys.insert(draw(st.integers(0, n - 1)), keys[draw(st.integers(0, n - 2))])
        if draw(st.booleans()):
            keys.sort()  # ascending but not strictly: the ordered proof must refuse it
    return np.array(keys, dtype=np.int64), space


@settings(max_examples=300, deadline=None)
@given(probe_cases(distinct=False))
def test_probe_never_proves_a_batch_with_a_duplicate(case):
    keys, space = case
    assert not DuplicateProbe(space).collision_free(keys)


@settings(max_examples=300, deadline=None)
@given(probe_cases(distinct=True, ascending=True))
def test_probe_proves_ascending_keys_without_scratch(case):
    keys, space = case
    probe = DuplicateProbe(space)
    assert probe.collision_free(keys)
    assert probe._scratch is None


@settings(max_examples=300, deadline=None)
@given(probe_cases(distinct=True), st.booleans())
def test_proven_batches_group_as_the_identity(case, ascending):
    """What ``segment`` returns for a batch the probe proves — ascending,
    or any order over an affordable key space — is the identity grouping."""
    keys, space = case
    if ascending or space > keys.size * SLOTS:  # the probe declines unordered keys there
        keys = np.sort(keys)
    n = keys.size
    seg = segment(keys, DuplicateProbe(space))
    assert seg.collision_free
    np.testing.assert_array_equal(seg.order, np.arange(n))
    np.testing.assert_array_equal(seg.first_pos, np.arange(n))
    np.testing.assert_array_equal(seg.last_pos, np.arange(n))
    np.testing.assert_array_equal(seg.lengths, np.ones(n, dtype=np.int64))
    np.testing.assert_array_equal(seg.leaders, keys)
    assert seg.num_segments == n and seg.max_multiplicity == 1


def test_probe_declines_unordered_batches_over_a_large_key_space(grouping_sorts):
    """The control: distinct but unordered keys over a key space above
    64 slots per key, with two descents so that neither order proof
    applies, are declined, allocate nothing, and sort."""
    keys = np.array([5, 3, 9, 1], dtype=np.int64)
    probe = DuplicateProbe(keys.size * SLOTS + 1)
    assert not probe.collision_free(keys)
    assert probe._scratch is None
    seg = segment(keys, probe)
    assert seg.collision_free and sum(grouping_sorts.values()) == 1
    np.testing.assert_array_equal(seg.leaders, np.sort(keys))


def test_distinct_grouping_is_built_on_first_access():
    keys = np.array([4, 0, 7], dtype=np.int64)
    seg = SegmentedBatch.distinct(keys)
    assert seg.num_segments == 3 and seg.max_multiplicity == 1
    assert all(built is None for built in (seg._order, seg._first_pos, seg._last_pos))
    np.testing.assert_array_equal(seg.first_pos, np.arange(3))
    np.testing.assert_array_equal(seg.last_pos, np.arange(3))
    np.testing.assert_array_equal(seg.leaders, keys)  # batch order, not ascending


# ---------------------------------------------------------------------------
# The rotation proof, and contiguous ranges
# ---------------------------------------------------------------------------


@st.composite
def rotated_cases(draw, distinct):
    """``(keys, space)``: a rotation of ascending keys over a key space
    above the scratch allowance, where only the order proofs apply.  With
    ``distinct`` the ascent is strict; otherwise one key repeats, either
    inside the ascent or across the two runs of a rotation whose ranges
    overlap."""
    n = draw(st.integers(2, 48))
    space = draw(st.integers(n * SLOTS + 1, n * SLOTS * 64))
    keys = sorted(draw(st.sets(st.integers(0, space - 1), min_size=n, max_size=n)))
    if not distinct:
        if draw(st.booleans()):
            keys[draw(st.integers(1, n - 1))] = keys[0]  # non-strict ascent
            keys.sort()
        else:  # two ascending runs sharing a key
            cut = draw(st.integers(1, n - 1))
            head, tail = keys[:cut], keys[cut:]
            tail[draw(st.integers(0, len(tail) - 1))] = head[draw(st.integers(0, cut - 1))]
            return np.array(head + sorted(tail), dtype=np.int64), space
    shift = draw(st.integers(0, n - 1))
    return np.array(keys[shift:] + keys[:shift], dtype=np.int64), space


@settings(max_examples=300, deadline=None)
@given(rotated_cases(distinct=False))
def test_probe_never_proves_a_rotated_batch_with_a_duplicate(case):
    keys, space = case
    assert not DuplicateProbe(space).collision_free(keys)


@settings(max_examples=300, deadline=None)
@given(rotated_cases(distinct=True))
def test_probe_proves_every_rotation_of_increasing_keys_without_scratch(case):
    """A sampled tensor whose set range wraps past the last set descends
    once; over a key space too big for scratch, the rotation proof is
    what keeps it from sorting."""
    keys, space = case
    probe = DuplicateProbe(space)
    assert probe.collision_free(keys)
    assert probe._scratch is None


@pytest.mark.parametrize("start,n", [(0, 1), (5, 3), (0, 16), (1000, 2400)])
def test_contiguous_range_groups_by_slice(grouping_sorts, start, n):
    """A ``range`` is the identity grouping indexed by slice: no probe
    call and no sort, and the per-line keys are built only on first
    read, equal to the array the range stands for."""

    class NoProbe(DuplicateProbe):
        def collision_free(self, keys):
            raise AssertionError("a range needs no probe")

    seg = segment(range(start, start + n), NoProbe(start + n))
    assert seg.collision_free and seg.index == slice(start, start + n)
    assert seg.num_segments == n and seg.max_multiplicity == 1
    assert seg._keys is None and sum(grouping_sorts.values()) == 0
    expected = np.arange(start, start + n, dtype=np.int64)
    np.testing.assert_array_equal(seg.keys, expected)
    assert seg.keys.dtype == np.int64 and seg.keys is seg.sorted_keys
    np.testing.assert_array_equal(seg.leaders, expected)
    np.testing.assert_array_equal(seg.order, np.arange(n))
    np.testing.assert_array_equal(seg.lengths, np.ones(n, dtype=np.int64))
    state = np.arange(2 * (start + n))
    np.testing.assert_array_equal(state[seg.index], state[expected])


# ---------------------------------------------------------------------------
# Split batches: singleton keys apart from repeated keys
# ---------------------------------------------------------------------------


@st.composite
def split_cases(draw):
    """``(keys, space)``: distinct keys plus repeats of some of them, over
    a key space the probe's scratch affords, shuffled or ascending (a
    log-append window's runs)."""
    distinct = draw(st.integers(2, 48))
    repeats = draw(st.integers(1, 24))
    space = draw(st.integers(distinct + repeats, (distinct + repeats) * SLOTS))
    once = draw(st.lists(st.integers(0, space - 1), min_size=distinct, max_size=distinct, unique=True))
    keys = once + draw(st.lists(st.sampled_from(once), min_size=repeats, max_size=repeats))
    keys = sorted(keys) if draw(st.booleans()) else draw(st.permutations(keys))
    return np.array(keys, dtype=np.int64), space


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_probe_marks_exactly_the_repeated_keys(case):
    """After refusing a batch by scatter/gather, the probe marks every
    occurrence of every repeated key and no singleton, or declines to
    when repeated keys hold more than half of the positions; it answers
    once per refusal."""
    keys, space = case
    probe = DuplicateProbe(space)
    assert not probe.collision_free(keys)
    repeated = np.bincount(keys)[keys] > 1
    colliding = probe.colliding(keys)
    if 2 * np.count_nonzero(repeated) > keys.size:
        assert colliding is None
    else:
        np.testing.assert_array_equal(colliding, repeated)
    assert probe.colliding(keys) is None


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_partitions_the_batch(case):
    """A batch whose singleton keys hold at least half of its positions
    splits: the singleton part selects exactly the positions whose key
    occurs once, in batch order, as an identity grouping of pairwise
    distinct keys; the colliding part selects every other position and
    is grouped exactly as the stable argsort of its keys; no key is in
    both.  Any other batch is grouped whole."""
    keys, space = case
    n = keys.size
    counts = np.bincount(keys)
    single = counts[keys] == 1
    seg = segment(keys, DuplicateProbe(space))
    if 2 * np.count_nonzero(~single) > n:
        assert isinstance(seg, SegmentedBatch) and not seg.collision_free
        return
    assert isinstance(seg, SplitBatch) and not seg.collision_free
    (at_singles, singles), (at_repeats, grouped) = seg.parts
    batch = np.arange(n)
    np.testing.assert_array_equal(batch[at_singles], np.flatnonzero(single))
    np.testing.assert_array_equal(batch[at_repeats], np.flatnonzero(~single))
    single_keys, repeat_keys = keys[at_singles], keys[at_repeats]
    assert singles.collision_free
    np.testing.assert_array_equal(singles.keys, single_keys)
    assert np.unique(single_keys).size == single_keys.size
    assert not np.isin(single_keys, repeat_keys).any()
    stable = np.argsort(repeat_keys, kind="stable")
    np.testing.assert_array_equal(grouped.order, stable)
    np.testing.assert_array_equal(grouped.sorted_keys, repeat_keys[stable])
    assert seg.size == n
    assert singles.num_segments + grouped.num_segments == np.unique(keys).size
    assert grouped.max_multiplicity == counts.max()


def test_only_a_scattered_batch_splits(grouping_sorts):
    """A batch the probe declined or refused by pigeonhole was never
    scattered, so it has no split and sorts whole; and a later scatter
    replaces the record of an earlier refusal."""
    declined = np.array([9, 3, 9, 1, 7, 5], dtype=np.int64)  # unordered, no scratch
    probe = DuplicateProbe(declined.size * SLOTS + 1)
    assert not probe.collision_free(declined) and probe.colliding(declined) is None
    crowded = np.array([0, 1, 2, 3, 0], dtype=np.int64)  # five keys in four slots
    probe = DuplicateProbe(4)
    assert not probe.collision_free(crowded) and probe.colliding(crowded) is None
    seg = segment(crowded, probe)
    assert isinstance(seg, SegmentedBatch) and sum(grouping_sorts.values()) == 1
    probe = DuplicateProbe(16)
    first = np.array([4, 1, 2, 4, 6, 8, 9], dtype=np.int64)
    assert not probe.collision_free(first)
    assert probe.collision_free(np.array([3, 1, 2], dtype=np.int64))
    assert probe.colliding(first) is None
