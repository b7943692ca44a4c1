"""Closed-form duplicate resolution for the whole cache-model zoo.

Every cache model used to decompose batches into collision rounds,
paying one ``np.unique`` sort per round; a batch where many lines alias
the same set (streaming writes that wrap the cache, the small-capacity
ablation points, graph traces) degraded toward serial per-access cost —
exactly the high-miss regime the paper cares about.  This module removes
the round loop from every production path.

The key observation: within one batch of same-kind requests, only the
*first* access to a set interacts with pre-batch cache state; every
later access to that set sees exactly the state the immediately
preceding occurrence left behind.  Over the grouped view of a
:class:`~repro.perf.segments.SegmentedBatch` that one-step recurrence
has a closed form for each request kind.  Each asks a segment only
whether an event happens and where it first does — the first miss, the
first mismatch, the first match — which
:meth:`~repro.perf.segments.SegmentedBatch.first_true` answers for
every segment in one scan:

**Direct-mapped reads.**  Occurrence ``k`` hits iff its line equals the
previous occurrence's line (for ``k = 0``, the resident tag).  A read
miss installs a clean line, so at most one miss per set — the segment's
first — can evict pre-batch dirty state; every later miss is clean by
construction, and the dirty misses are the segments on a dirty set
that miss at all.  Final state: the set holds the segment's last line,
dirty only if the whole segment hit.

**Direct-mapped writes, insert-on-miss.**  Every write leaves its set
dirty, so every miss after a set's first occurrence is a dirty miss.
The Dirty Data Optimization needs the "known resident" bit, which
survives only along an unbroken prefix of tag matches, so DDO applies
to occurrence ``k`` iff the set started known-resident and occurrences
``0..k`` all match: the DDO writes are
``Σ known_resident[set] · (first mismatch − segment start)``.
Final state: last line, dirty, known-resident only if the set started
so and the whole segment matched.

**Direct-mapped writes, write-around.**  A write-around miss leaves the
set untouched, so the resident tag never changes inside the batch:
every occurrence compares against the pre-batch tag, and the set turns
dirty at the first match (hit or DDO).  A miss is dirty iff the set
started dirty or any earlier occurrence matched, so the dirty misses
are every miss but, on sets that start clean, the all-miss prefix
before the first match.

**Sector caches.**  The tag recurrence is identical (after any access
the sector tag equals that access's sector), so tag match/miss is
closed-form.  Valid/dirty state is a per-line *bitmap* per set (one
``uint64``), and segments split into *runs* at each sector miss (the
miss resets the bitmaps).  Writes are fully closed-form: every write
sets its line's valid+dirty bit, so each run's end state is a
``bitwise_or.reduceat`` over the run, and the bitmap a sector miss
evicts is exactly the previous run's end state.  Reads conditionally
fetch a *footprint window* only when the demand line's valid bit is
unset, which couples accesses through the bitmap; that recurrence has
no closed form, but it is provably ``k``-bounded with
``k <= sector_lines``: each footprint fill covers its own previously
uncovered bit, so a run can contain at most ``sector_lines`` fills, and
the monotone fill-resolution loop in :func:`sector_read_batch` retires
at least one fill per active run per pass — independent of batch size.

**Set-associative LRU.**  LRU stamps couple same-set occurrences of
*different* lines (every access reorders the whole recency stack), so
a victim depends on the full prefix and the recurrence is resolved in
rounds off the one shared sort.  Repeats need no round of their own:
an occurrence whose line equals its set's previous occurrence hits the
way that occurrence just made MRU — no lookup, no victim, and nothing
changes but that way's stamp.  Each set's occurrences therefore split
into *runs* of one repeated line; a run's head does the lookup, its
repeats count as hits (for writes, DDO writes exactly when the head was
one), and the head writes the run's final stamp directly.  Round ``r``
resolves every set's ``r``-th run head, so a batch takes as many rounds
as the largest number of runs in one set.  That is at most the largest
same-set multiplicity ``k``, and equals it only when a set with ``k``
occurrences never repeats a line back to back (e.g. a same-set chain of
``ways + 1`` alternating lines, where every miss's victim depends on
the previous access's stamp).  Stamps and the clock stay those of one
tick per occurrence rank: the clock advances by ``k``.  Collision-free
batches (the common uniform case) skip the loop and the sort entirely
via the duplicate probe.

Each closed form is a handful of vectorized segment operations — at
most one grouping sort per batch (zero for probe-proven collision-free
batches, one over only the repeated sets of a split batch, and shared
by every pass over a frozen line vector while it lives) — and
is property-tested bit-for-bit against scalar references
(``tests/cache/test_engine_property.py``).  A collision-free batch is
one independent round over the batch as given: one gather per state
array, whole-batch scatters, and no index copies.

**Contiguous batches.**  A run of consecutive lines whose sets do not
wrap past the last set maps to the set range ``range(s0, s0 + n)``, so
:class:`BatchSegmenter` skips the ``lines % num_sets`` pass and the
duplicate probe for it, and the grouping's ``index`` is that range as a
``slice``.  The direct-mapped collision-free forms (:func:`read_batch`
and the distinct write) index state with ``seg.index``, so for such a
batch each gather is a contiguous view and each scatter a slice
assignment, from the same statements.  A view aliases the state array,
so those forms read every state array before their first write to it.
The other forms read ``seg.keys``, which the grouping then builds.

**Split batches.**  A batch with a few repeated sets among many that
occur once — kvtrace's log-append windows are 97 % singletons on their
direct-mapped geometry — would otherwise sort every position and run
every general form over about ``n`` segments.  When at least half of a
batch's positions hold a set that occurs nowhere else in it, the
segmenter returns a :class:`~repro.perf.segments.SplitBatch` instead:
the singletons as the identity grouping and only the repeats sorted.
The two parts touch disjoint sets, so a closed form is exact on each
part as a batch of its own.  Every form therefore opens with one branch
into the one dispatcher, :func:`_by_part`, which runs the form on each
part with its per-request arrays taken at the part's positions, adds
the counts, scatters per-request outputs (the miss mask) back to batch
order, and, for LRU, keeps the clock's larger advance: both parts stamp
from the same clock, and the colliding part's largest multiplicity is
the batch's.  The research variants' coins are drawn once per batch in
request order, as before, and each part takes its own requests' coins;
the prefetcher's demand pass covers the whole batch before its
candidates are grouped, and split, in turn.
"""

from __future__ import annotations

import operator
import weakref
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.perf.counters import as_lines
from repro.perf.segments import (
    DuplicateProbe,
    SegmentedBatch,
    SplitBatch,
    positions,
    segment,
)

#: What the segmenter hands a closed form: one grouping, or a split batch.
Grouping = Union[SegmentedBatch, SplitBatch]

_FULL_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)
_ZERO = np.uint64(0)

if hasattr(np, "bitwise_count"):
    def popcount(bitmaps: np.ndarray) -> np.ndarray:
        """Per-element set-bit count of a uint64 array, as int64."""
        return np.bitwise_count(bitmaps).astype(np.int64)
else:  # pragma: no cover - numpy < 2.0 fallback
    def popcount(bitmaps: np.ndarray) -> np.ndarray:
        """Per-element set-bit count of a uint64 array, as int64."""
        as_bytes = np.ascontiguousarray(bitmaps).view(np.uint8)
        bits = np.unpackbits(as_bytes).reshape(-1, 64)
        return bits.sum(axis=1, dtype=np.int64)


#: Batches of at least this many lines take :func:`set_index`'s
#: floor-division form, shorter ones one ``%``.
SET_INDEX_DIVIDE_LINES = 1024


def set_index(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """``lines % num_sets``; long batches as ``lines + lines // num_sets * -num_sets``.

    The two are equal for every int64 by numpy's definition of ``%``
    (floor modulo), but numpy 2.4 divides an int64 array by a scalar
    through libdivide in ``//`` and not in ``%``: on a 262,144-line
    window the three calls take about half the time of ``%``.  On a
    short batch the one call wins.  In a ``timeit`` sweep over 2,047,
    65,504 and 786,432 sets (numpy 2.4, 2-vCPU x86-64 host; medians of
    15 alternating repeats of 500 calls), the three calls took 2.2x the
    time of ``%`` at 49 lines, 1.35x at 512, 1.01-1.03x at 1,024,
    0.94-0.96x at 1,280, 0.80x at 2,048 and 0.58-0.60x at 262,144, so
    :data:`SET_INDEX_DIVIDE_LINES` is 1,024.
    """
    if lines.size < SET_INDEX_DIVIDE_LINES:
        return lines % num_sets
    index = lines // num_sets
    index *= -num_sets
    index += lines
    return index


class BatchSegmenter:
    """Per-model grouping memo: at most one grouping per frozen line vector.

    Owns the model's set-index step and its
    :class:`~repro.perf.segments.DuplicateProbe`, so probe-proven
    collision-free batches skip the sort entirely, and a contiguous
    batch (consecutive lines whose sets do not wrap) skips both the
    set-index pass and the probe.  A batch whose sets mostly occur once
    comes back as a :class:`~repro.perf.segments.SplitBatch`, which sorts
    only the positions whose set repeats, provided at least half of the
    positions are singletons.

    It also remembers the grouping of every line vector marked
    non-writeable, keyed on the vector's identity, for as long as the
    vector lives: a weak-reference callback drops the entry when the
    vector is collected.  A workload that feeds the same frozen vector to
    the model again — an output tensor's RFO and write-back, the
    read-modify-write shape of the paper's microbenchmarks, and every
    later kernel that reads a tensor an earlier one wrote — pays for
    one grouping, one set-index pass and one validation across all of
    those passes.  The probe's key space, ``num_sets``, is also the key
    bound that lets the sort pack keys with positions.

    The memo only holds non-writeable vectors (the memoized
    ``access_blocks()``/``lfsr_sequence()`` streams and the executors'
    tensor line arrays), because a mutable one could change between
    passes and silently invalidate its grouping.
    """

    __slots__ = ("num_sets", "_probe", "_memo")

    def __init__(self, num_sets: int) -> None:
        self.num_sets = num_sets
        self._probe = DuplicateProbe(num_sets)
        #: ``id`` of a live frozen vector -> (weak reference to it, its grouping).
        self._memo: Dict[int, Tuple[weakref.ref, Grouping]] = {}

    def segment(
        self, lines: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Grouping]:
        """``lines`` as a validated int64 vector, and its grouping by set.

        A memoized vector comes back as itself with the grouping made
        when it was first seen, so only a vector not in the memo is
        validated (:func:`~repro.perf.counters.as_lines`, which raises
        ``ValueError`` on a negative or non-1-D batch) and grouped.
        ``keys`` are the per-line set indices, ``lines % num_sets`` by
        default, computed only on a memo miss.  A caller whose sets are
        not ``lines % num_sets`` (the sector cache) validates ``lines``
        itself and passes its own keys.
        """
        entry = self._memo.get(id(lines))
        if entry is not None:
            return lines, entry[1]
        if keys is None:
            lines = as_lines(lines)
            keys = self._set_index(lines)
        seg = segment(keys, probe=self._probe)
        if lines.size and not lines.flags.writeable:
            memo, key = self._memo, id(lines)
            memo[key] = (weakref.ref(lines, lambda _, key=key: memo.pop(key, None)), seg)
        return lines, seg

    def _set_index(self, lines: np.ndarray) -> Union[np.ndarray, range]:
        """``lines % num_sets`` (by :func:`set_index`), or the range of
        sets a contiguous batch covers.

        A batch whose ends are ``n - 1`` lines apart, whose first set
        leaves room for ``n`` sets before the last, and whose lines
        strictly increase is ``first + arange(n)``, so its sets are
        ``range(first % num_sets, first % num_sets + n)``.  Any other
        batch pays only the two end reads before the set-index pass.
        """
        n = lines.size
        if n:
            first = int(lines[0])
            start = first % self.num_sets
            if (
                int(lines[-1]) - first == n - 1
                and start + n <= self.num_sets
                and (lines[1:] > lines[:-1]).all()
            ):
                return range(start, start + n)
        return set_index(lines, self.num_sets)


def _by_part(
    form: Callable[..., Any],
    seg: SplitBatch,
    per_request: Tuple[np.ndarray, ...],
    *rest: Any,
    **options: Any,
) -> Any:
    """``form(*per_request, seg, *rest, **options)`` over a split batch,
    one part at a time.

    Every closed form takes its per-request arrays (lines, sector
    offsets, pre-drawn coins) first, then the grouping, then the state
    it updates, and opens with one branch: handed a
    :class:`~repro.perf.segments.SplitBatch`, it returns this dispatcher
    applied to itself, and any other grouping runs its own body, so a
    batch that is not split pays one type check.  The parts of a split
    batch touch disjoint sets, so the form runs on each in turn, its
    collision-free body on the singletons and its general body on the
    rest, with every per-request array taken at that part's positions,
    and the results merge (:func:`_merge`).
    """
    (at_singles, singles), (at_repeats, repeats) = seg.parts
    return _merge(
        seg,
        form(*(values[at_singles] for values in per_request), singles, *rest, **options),
        form(*(values[at_repeats] for values in per_request), repeats, *rest, **options),
    )


def _merge(seg: SplitBatch, first: Any, second: Any) -> Any:
    """One result from the two parts' results of a closed form.

    Counts add up field by field; a per-request array (the miss mask),
    in each part's order, is scattered back to batch order; a plain
    tuple of results merges element by element; ``None`` stays ``None``;
    and the LRU clock, which both parts advanced from the same start,
    takes the larger advance.
    """
    if first is None:
        return None
    if isinstance(first, np.ndarray):
        (at_first, _), (at_second, _) = seg.parts
        merged = np.empty(seg.size, dtype=first.dtype)
        merged[at_first] = first
        merged[at_second] = second
        return merged
    if type(first) is tuple:
        return tuple(_merge(seg, a, b) for a, b in zip(first, second))
    if isinstance(first, tuple):
        return type(first)(*map(operator.add, first, second))
    return max(first, second)


# ---------------------------------------------------------------------------
# Direct-mapped closed forms
# ---------------------------------------------------------------------------


class ReadCounts(NamedTuple):
    """Tag outcomes of one batched-read pass (state already updated)."""

    requests: int
    misses: int
    dirty_misses: int


class WriteCounts(NamedTuple):
    """Tag outcomes of one batched-write pass (state already updated)."""

    requests: int
    ddo_writes: int
    hits: int
    misses: int
    dirty_misses: int


def _differs_from_previous(
    grouped: np.ndarray, seg: SegmentedBatch, resident: np.ndarray
) -> np.ndarray:
    """Per sorted position: whether ``grouped`` differs from the previous
    occurrence of its key, or, for a segment's first occurrence, from
    that segment's ``resident`` value.

    One comparison of each element with its predecessor into a fresh
    mask, then each segment start is set by index: no shifted copy.
    """
    differs = np.empty(grouped.size, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=differs[1:])
    first_pos = seg.first_pos
    differs[first_pos] = grouped[first_pos] != resident
    return differs


def read_batch(
    lines: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    *,
    want_misses: bool = False,
) -> Tuple[ReadCounts, Optional[np.ndarray]]:
    """Apply a batch of LLC reads to direct-mapped state, in one pass.

    ``seg`` is the grouped view of ``lines % num_sets`` (``seg.keys``).
    Mutates ``tags``/``dirty``/``known_resident`` in place and returns
    the tag outcome counts; the caller owns traffic accounting.  With
    ``want_misses`` the per-request miss mask (batch order) is returned
    as well — the hook the research variants charge their own traffic
    from.  A collision-free batch indexes state with ``seg.index``; when
    that is a slice, a gather is a view of the state array, so every
    read of a state array comes before the first write to it.
    """
    if type(seg) is SplitBatch:
        return _by_part(
            read_batch, seg, (lines,), tags, dirty, known_resident, want_misses=want_misses
        )
    n = int(lines.size)
    if seg.collision_free:
        # No set is touched twice: the whole batch is one independent
        # round.  A hit's tag already equals its line, so every set takes
        # its line, and only a miss clears the dirty bit.
        sets = seg.index
        miss = tags[sets] != lines
        was_dirty = dirty[sets]
        n_miss = int(np.count_nonzero(miss))
        n_dirty = int(np.count_nonzero(miss & was_dirty))
        tags[sets] = lines
        dirty[sets] = was_dirty & ~miss
        known_resident[sets] = True
        return ReadCounts(n, n_miss, n_dirty), (miss if want_misses else None)

    grouped_lines = lines[seg.order]
    lead_sets = seg.leaders
    # Compared with the previous occurrence's line; firsts with the
    # pre-batch resident tag.
    miss = _differs_from_previous(grouped_lines, seg, tags[lead_sets])
    n_miss = int(np.count_nonzero(miss))
    # Reads install clean, so only a segment's first miss can see
    # pre-batch dirty state: the dirty misses are the segments on a
    # dirty set that miss at all.
    seg_missed = seg.first_true(miss) < n
    n_dirty = int(np.count_nonzero(seg_missed & dirty[lead_sets]))

    tags[lead_sets] = grouped_lines[seg.last_pos]
    dirty[lead_sets] &= ~seg_missed
    known_resident[lead_sets] = True
    if want_misses:
        batch_miss = np.empty(n, dtype=bool)
        batch_miss[seg.order] = miss
        return ReadCounts(n, n_miss, n_dirty), batch_miss
    return ReadCounts(n, n_miss, n_dirty), None


def write_batch(
    lines: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    *,
    ddo_enabled: bool,
    insert_on_write_miss: bool,
) -> WriteCounts:
    """Apply a batch of LLC write-backs to direct-mapped state, in one pass.

    Mutates the state arrays in place and returns the tag outcome
    counts; the caller owns traffic accounting (which differs between
    the insert-on-miss and write-around policies).
    """
    if type(seg) is SplitBatch:
        return _by_part(
            write_batch, seg, (lines,), tags, dirty, known_resident,
            ddo_enabled=ddo_enabled, insert_on_write_miss=insert_on_write_miss,
        )
    if seg.collision_free:
        return _write_distinct(
            lines, seg.index, tags, dirty, known_resident,
            ddo_enabled=ddo_enabled, insert_on_write_miss=insert_on_write_miss,
        )
    if insert_on_write_miss:
        return _write_insert(
            lines, seg, tags, dirty, known_resident, ddo_enabled=ddo_enabled
        )
    return _write_around(
        lines, seg, tags, dirty, known_resident, ddo_enabled=ddo_enabled
    )


def _write_distinct(
    lines: np.ndarray,
    sets: Union[np.ndarray, slice],
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    *,
    ddo_enabled: bool,
    insert_on_write_miss: bool,
) -> WriteCounts:
    """Collision-free batch: one independent vectorized round.

    One gather per state array, then whole-batch scatters: a match (DDO
    or tag-checked hit) dirties its set, and a miss either installs
    dirty and not known-resident or, written around, leaves the set as
    it was.  ``sets`` is the grouping's ``index``; when it is a slice,
    each gather is a view of its state array, so every read of a state
    array comes before the first write to it.
    """
    n = int(lines.size)
    match = tags[sets] == lines
    was_dirty = dirty[sets]
    known = known_resident[sets]
    n_match = int(np.count_nonzero(match))
    n_ddo = int(np.count_nonzero(match & known)) if ddo_enabled else 0
    n_dirty = int(np.count_nonzero(was_dirty & ~match))

    if insert_on_write_miss:
        tags[sets] = lines
        dirty[sets] = True
        known_resident[sets] = known & match
    else:
        dirty[sets] = was_dirty | match
    return WriteCounts(n, n_ddo, n_match - n_ddo, n - n_match, n_dirty)


def _write_insert(
    lines: np.ndarray,
    seg: SegmentedBatch,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    *,
    ddo_enabled: bool,
) -> WriteCounts:
    n = int(lines.size)
    grouped_lines = lines[seg.order]
    lead_sets = seg.leaders
    mismatch = _differs_from_previous(grouped_lines, seg, tags[lead_sets])
    n_miss = int(np.count_nonzero(mismatch))
    first_miss = seg.first_true(mismatch)
    n_ddo = 0
    if ddo_enabled:
        # Known residency survives only the all-match prefix before a
        # set's first mismatch: those writes are the DDO writes.
        matched_prefix = np.minimum(first_miss - seg.first_pos, seg.lengths)
        n_ddo = int(matched_prefix[known_resident[lead_sets]].sum())
    # Every write leaves its set dirty, so every miss is dirty except a
    # segment-opening miss on a set that started clean.
    opens_clean = (first_miss == seg.first_pos) & ~dirty[lead_sets]
    n_dirty = n_miss - int(np.count_nonzero(opens_clean))

    tags[lead_sets] = grouped_lines[seg.last_pos]
    dirty[lead_sets] = True
    known_resident[lead_sets] &= first_miss == n
    return WriteCounts(n, n_ddo, n - n_miss - n_ddo, n_miss, n_dirty)


def _write_around(
    lines: np.ndarray,
    seg: SegmentedBatch,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    *,
    ddo_enabled: bool,
) -> WriteCounts:
    n = int(lines.size)
    grouped_lines = lines[seg.order]
    grouped_sets = seg.sorted_keys
    lead_sets = seg.leaders
    # A write-around miss leaves the set untouched, so every occurrence
    # compares against the pre-batch resident tag.
    match = grouped_lines == tags[grouped_sets]
    n_match = int(np.count_nonzero(match))
    n_ddo = 0
    if ddo_enabled:
        n_ddo = int(np.count_nonzero(match & known_resident[grouped_sets]))
    # The set turns dirty at its first match (hit or DDO write), so the
    # dirty misses are all misses but, on sets that start clean, the
    # all-miss prefix before the first match.
    first_match = seg.first_true(match)
    missed_prefix = np.minimum(first_match - seg.first_pos, seg.lengths)
    n_miss = n - n_match
    n_dirty = n_miss - int(missed_prefix[~dirty[lead_sets]].sum())

    dirty[lead_sets] |= first_match < n
    return WriteCounts(n, n_ddo, n_match - n_ddo, n_miss, n_dirty)


# ---------------------------------------------------------------------------
# Sector (footprint) closed forms
# ---------------------------------------------------------------------------


class SectorReadCounts(NamedTuple):
    """Outcomes of one batched sector-read pass (state already updated)."""

    requests: int
    hits: int
    line_misses: int
    sector_misses: int
    dirty_sector_misses: int
    #: Footprint lines fetched from NVRAM (= DRAM fill writes).
    fetched_lines: int
    #: Dirty lines written back by sector evictions.
    evicted_lines: int


class SectorWriteCounts(NamedTuple):
    """Outcomes of one batched sector-write pass (state already updated)."""

    requests: int
    hits: int
    sector_misses: int
    dirty_sector_misses: int
    #: Dirty lines written back by sector evictions.
    evicted_lines: int


def footprint_windows(
    offsets: np.ndarray, footprint: int, sector_lines: int
) -> np.ndarray:
    """Per-demand uint64 bitmaps of the footprint window at each offset.

    The window covers ``min(footprint, sector_lines - offset)`` lines
    starting at the demand offset (fetch never crosses the sector end).
    """
    span = np.minimum(footprint, sector_lines - offsets)
    full = span >= 64
    mask = (_ONE << np.where(full, 0, span).astype(np.uint64)) - _ONE
    mask = np.where(full, _FULL_MASK, mask)
    return mask << offsets.astype(np.uint64)


def _run_partition(
    seg: SegmentedBatch, reset: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Split segments into runs at each reset position (grouped order).

    Returns ``(run_id, run_starts)``: runs are contiguous in the grouped
    view, one per segment-first or reset position.
    """
    run_start = reset.copy()
    run_start[seg.first_pos] = True
    run_id = np.cumsum(run_start) - 1
    return run_id, np.flatnonzero(run_start)


def sector_read_batch(
    sectors: np.ndarray,
    offsets: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    valid: np.ndarray,
    dirty: np.ndarray,
    *,
    footprint: int,
    sector_lines: int,
) -> SectorReadCounts:
    """Apply a batch of LLC reads to sector-cache bitmap state.

    ``seg`` groups the batch by *set index*; ``valid``/``dirty`` are
    per-set uint64 line bitmaps.  The tag recurrence is closed-form; the
    conditional footprint fills are resolved by a monotone loop bounded
    by ``sector_lines`` passes (each pass retires one fill per active
    run, and a run can hold at most ``sector_lines`` fills because every
    fill covers its own previously-uncovered bit).
    """
    if type(seg) is SplitBatch:
        return _by_part(
            sector_read_batch, seg, (sectors, offsets), tags, valid, dirty,
            footprint=footprint, sector_lines=sector_lines,
        )
    n = int(sectors.size)
    if not n:
        return SectorReadCounts(0, 0, 0, 0, 0, 0, 0)
    windows = footprint_windows(offsets, footprint, sector_lines)
    if seg.collision_free:
        return _sector_read_distinct(
            sectors, offsets, windows, seg.keys, tags, valid, dirty
        )

    g = seg.order
    gs = sectors[g]
    go = offsets[g].astype(np.uint64)
    gw = windows[g]
    lead_sets = seg.leaders

    sector_miss = _differs_from_previous(gs, seg, tags[lead_sets])
    tag_match = ~sector_miss

    run_id, run_starts = _run_partition(seg, sector_miss)
    # A run opened by the segment's first access *matching* the resident
    # sector starts from the pre-batch valid bitmap; every other run
    # starts empty (a sector miss just reset it).
    coverage = np.zeros(run_starts.size, dtype=np.uint64)
    inherits = tag_match[seg.first_pos]
    coverage[run_id[seg.first_pos[inherits]]] = valid[lead_sets[inherits]]

    # Monotone fill resolution: a covered demand bit stays covered (runs
    # only accumulate), so covered accesses resolve as hits immediately;
    # the first unresolved access of each run is then a definite fill.
    fill = np.zeros(n, dtype=bool)
    fetched = 0
    todo = positions(n)
    while todo.size:
        covered = (coverage[run_id[todo]] >> go[todo]) & _ONE != _ZERO
        todo = todo[~covered]
        if not todo.size:
            break
        rid = run_id[todo]
        frontier = np.empty(todo.size, dtype=bool)
        frontier[0] = True
        frontier[1:] = rid[1:] != rid[:-1]
        heads = todo[frontier]
        head_runs = run_id[heads]
        before = coverage[head_runs]
        fetched += int(popcount(gw[heads] & ~before).sum())
        fill[heads] = True
        coverage[head_runs] = before | gw[heads]
        todo = todo[~frontier]

    n_hits = int((tag_match & ~fill).sum())
    n_line_miss = int((tag_match & fill).sum())
    n_sector_miss = int(sector_miss.sum())
    # Reads never dirty lines, so only the segment's *first* sector miss
    # can evict pre-batch dirty state; later victims are clean.
    seg_missed = seg.first_true(sector_miss) < n
    evict_source = dirty[lead_sets[seg_missed]]
    n_dirty_miss = int(np.count_nonzero(evict_source))
    evicted = int(popcount(evict_source).sum())

    last_pos = seg.last_pos
    tags[lead_sets] = gs[last_pos]
    valid[lead_sets] = coverage[run_id[last_pos]]
    dirty[lead_sets] = np.where(seg_missed, _ZERO, dirty[lead_sets])
    return SectorReadCounts(
        n, n_hits, n_line_miss, n_sector_miss, n_dirty_miss, fetched, evicted
    )


def _sector_read_distinct(
    sectors: np.ndarray,
    offsets: np.ndarray,
    windows: np.ndarray,
    index: np.ndarray,
    tags: np.ndarray,
    valid: np.ndarray,
    dirty: np.ndarray,
) -> SectorReadCounts:
    """Collision-free sector reads: one independent vectorized round."""
    n = int(sectors.size)
    tag_match = tags[index] == sectors
    resident_valid = valid[index]
    line_valid = (resident_valid >> offsets.astype(np.uint64)) & _ONE != _ZERO
    hit = tag_match & line_valid
    line_miss = tag_match & ~line_valid
    sector_miss = ~tag_match

    # Line misses fetch only the window bits not already valid; sector
    # misses reset the bitmap first, so they fetch the whole window.
    fetched = int(popcount(windows[line_miss] & ~resident_valid[line_miss]).sum())
    fetched += int(popcount(windows[sector_miss]).sum())
    evict_source = dirty[index[sector_miss]]
    n_dirty_miss = int((evict_source != _ZERO).sum())
    evicted = int(popcount(evict_source).sum())

    lm_index = index[line_miss]
    valid[lm_index] = resident_valid[line_miss] | windows[line_miss]
    sm_index = index[sector_miss]
    tags[sm_index] = sectors[sector_miss]
    valid[sm_index] = windows[sector_miss]
    dirty[sm_index] = _ZERO
    return SectorReadCounts(
        n,
        int(hit.sum()),
        int(line_miss.sum()),
        int(sector_miss.sum()),
        n_dirty_miss,
        fetched,
        evicted,
    )


def sector_write_batch(
    sectors: np.ndarray,
    offsets: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    valid: np.ndarray,
    dirty: np.ndarray,
) -> SectorWriteCounts:
    """Apply a batch of LLC write-backs to sector-cache bitmap state.

    Fully closed-form: every write sets its line's valid+dirty bit
    unconditionally (a hit writes in place, a miss installs after
    evicting), so each run's end-state bitmap is a single
    ``bitwise_or.reduceat`` and the bitmap a sector miss evicts is
    exactly the preceding run's end state.
    """
    if type(seg) is SplitBatch:
        return _by_part(sector_write_batch, seg, (sectors, offsets), tags, valid, dirty)
    n = int(sectors.size)
    if not n:
        return SectorWriteCounts(0, 0, 0, 0, 0)
    bits = _ONE << offsets.astype(np.uint64)
    if seg.collision_free:
        index = seg.keys
        tag_match = tags[index] == sectors
        miss = ~tag_match
        evict_source = dirty[index[miss]]
        n_dirty_miss = int((evict_source != _ZERO).sum())
        evicted = int(popcount(evict_source).sum())

        hit_index = index[tag_match]
        valid[hit_index] |= bits[tag_match]
        dirty[hit_index] |= bits[tag_match]
        miss_index = index[miss]
        tags[miss_index] = sectors[miss]
        valid[miss_index] = bits[miss]
        dirty[miss_index] = bits[miss]
        return SectorWriteCounts(
            n, int(tag_match.sum()), int(miss.sum()), n_dirty_miss, evicted
        )

    g = seg.order
    gs = sectors[g]
    gb = bits[g]
    lead_sets = seg.leaders

    miss = _differs_from_previous(gs, seg, tags[lead_sets])
    tag_match = ~miss

    run_id, run_starts = _run_partition(seg, miss)
    run_or = np.bitwise_or.reduceat(gb, run_starts)
    # Each segment's first run inherits the pre-batch bitmaps when its
    # opening write matches the resident sector; every other run starts
    # empty (a sector miss just reset it).
    seg_runs = run_id[seg.first_pos]
    inherits = tag_match[seg.first_pos]
    run_init_valid = np.zeros(run_starts.size, dtype=np.uint64)
    run_init_dirty = np.zeros(run_starts.size, dtype=np.uint64)
    run_init_valid[seg_runs[inherits]] = valid[lead_sets[inherits]]
    run_init_dirty[seg_runs[inherits]] = dirty[lead_sets[inherits]]

    # The bitmap evicted by a miss: pre-batch state for a segment-opening
    # miss; any other miss opens a run of its own and evicts the end
    # state of the run before it.
    later_run = np.ones(run_starts.size, dtype=bool)
    later_run[seg_runs] = False
    prev_run = np.flatnonzero(later_run) - 1
    evict_source = np.concatenate(
        (dirty[lead_sets[~inherits]], run_init_dirty[prev_run] | run_or[prev_run])
    )
    n_dirty_miss = int((evict_source != _ZERO).sum())
    evicted = int(popcount(evict_source).sum())

    last_pos = seg.last_pos
    last_run = run_id[last_pos]
    tags[lead_sets] = gs[last_pos]
    valid[lead_sets] = run_init_valid[last_run] | run_or[last_run]
    dirty[lead_sets] = run_init_dirty[last_run] | run_or[last_run]
    return SectorWriteCounts(
        n, int(tag_match.sum()), int(miss.sum()), n_dirty_miss, evicted
    )


# ---------------------------------------------------------------------------
# Set-associative LRU (run-bounded round resolution)
# ---------------------------------------------------------------------------


def _lru_lookup(
    sub_lines: np.ndarray,
    sub_sets: np.ndarray,
    tags: np.ndarray,
    stamp: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-request (hit mask, slot): the flat index ``set * ways + way``
    of the hit way or, on a miss, of the LRU victim."""
    matches = np.take(tags, sub_sets, axis=0) == sub_lines[:, None]
    way = matches.argmax(axis=1)
    hit = matches[positions(way.size), way]
    miss = ~hit
    way[miss] = np.take(stamp, sub_sets[miss], axis=0).argmin(axis=1)
    return hit, sub_sets * tags.shape[1] + way


def _lru_rounds(
    lines: np.ndarray, seg: SegmentedBatch
) -> Iterator[Tuple[np.ndarray, np.ndarray, Union[np.ndarray, int], Union[np.ndarray, int]]]:
    """Per round: its run heads' lines and sets, each head's last rank
    and each run's size.

    A collision-free batch is one round of the whole batch, every run a
    single occurrence, read in place: ``lines`` and ``seg.keys`` with
    scalar rank 0 and size 1, no gather.
    """
    if seg.collision_free:
        yield lines, seg.keys, 0, 1
        return
    for rnd in seg.rounds(lines):
        yield lines[rnd.index], seg.keys[rnd.index], rnd.last_rank, rnd.size


def setassoc_read_batch(
    lines: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    stamp: np.ndarray,
    clock: np.int64,
) -> Tuple[ReadCounts, np.int64]:
    """Apply a batch of LLC reads to set-associative LRU state.

    Collision-free batches are one vectorized round (no sort, via the
    duplicate probe).  Otherwise each set's occurrences split into runs
    of one repeated line; a repeat hits the MRU way its run's head just
    touched, so it needs no lookup and no victim, and folds into the
    head, which writes the run's final stamp.  The run heads resolve
    round-by-round: as many rounds as the largest run count of one set
    (see the module docstring).  The ``(num_sets, ways)`` state arrays
    must be C-contiguous; they are updated through flat views.
    Returns the updated LRU clock alongside the counts: both parts of a
    split batch stamp from the same clock, which then advances by the
    colliding part's largest multiplicity.
    """
    if type(seg) is SplitBatch:
        return _by_part(
            setassoc_read_batch, seg, (lines,), tags, dirty, known_resident, stamp, clock
        )
    n = int(lines.size)
    n_miss = n_dirty = 0
    tags_at, dirty_at = tags.reshape(-1), dirty.reshape(-1)
    known_at, stamp_at = known_resident.reshape(-1), stamp.reshape(-1)
    for sub_lines, sub_sets, last_rank, _ in _lru_rounds(lines, seg):
        hit, slot = _lru_lookup(sub_lines, sub_sets, tags, stamp)
        miss = ~hit
        miss_slot = slot[miss]
        n_miss += int(miss_slot.size)
        n_dirty += int(dirty_at[miss_slot].sum())

        tags_at[miss_slot] = sub_lines[miss]
        dirty_at[miss_slot] = False
        known_at[slot] = True
        stamp_at[slot] = clock + 1 + last_rank
    return ReadCounts(n, n_miss, n_dirty), clock + seg.max_multiplicity


def setassoc_write_batch(
    lines: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
    stamp: np.ndarray,
    clock: np.int64,
    *,
    ddo_enabled: bool,
) -> Tuple[WriteCounts, np.int64]:
    """Apply a batch of LLC write-backs to set-associative LRU state.

    Same run folding, and the same clock, as :func:`setassoc_read_batch`.
    A folded repeat takes its head's outcome: a DDO write if the head
    was one (the way stays known-resident), otherwise a tag-checked hit
    (a miss or checked hit leaves the way not known-resident).
    """
    if type(seg) is SplitBatch:
        return _by_part(
            setassoc_write_batch, seg, (lines,), tags, dirty, known_resident, stamp, clock,
            ddo_enabled=ddo_enabled,
        )
    n = int(lines.size)
    n_ddo = n_miss = n_dirty = 0
    tags_at, dirty_at = tags.reshape(-1), dirty.reshape(-1)
    known_at, stamp_at = known_resident.reshape(-1), stamp.reshape(-1)
    for sub_lines, sub_sets, last_rank, size in _lru_rounds(lines, seg):
        hit, slot = _lru_lookup(sub_lines, sub_sets, tags, stamp)
        if ddo_enabled:
            n_ddo += int(np.sum(size * (hit & known_at[slot])))
        miss = ~hit
        miss_slot = slot[miss]
        n_miss += int(miss_slot.size)
        n_dirty += int(dirty_at[miss_slot].sum())

        dirty_at[slot] = True
        tags_at[miss_slot] = sub_lines[miss]
        known_at[miss_slot] = False
        stamp_at[slot] = clock + 1 + last_rank
    n_hit = n - n_ddo - n_miss
    return WriteCounts(n, n_ddo, n_hit, n_miss, n_dirty), clock + seg.max_multiplicity


# ---------------------------------------------------------------------------
# Research-variant closed forms
# ---------------------------------------------------------------------------


class BypassReadCounts(NamedTuple):
    """Outcomes of one probabilistic-insertion read pass."""

    requests: int
    misses: int
    allocations: int
    #: Misses that found their set dirty at check time (tag accounting).
    dirty_tagged: int
    #: Allocations that actually evicted a pre-batch dirty line.
    dirty_evictions: int


def bypass_read_batch(
    lines: np.ndarray,
    insert_draw: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
) -> BypassReadCounts:
    """Apply a batch of BEAR-style probabilistic-insertion reads.

    ``insert_draw`` (batch order) is the pre-drawn allocate coin per
    request; each part of a split batch takes the coins at its own
    positions, so every coin stays with its request.  The closed form
    rests on one observation: the resident tag after occurrence ``k``
    equals the line of the *last draw-selected occurrence* so far,
    regardless of hit/miss — a selected hit leaves the tag equal to its
    own line, a selected miss installs it, and an unselected access
    never changes it.  That makes the tag a segmented
    last-where-selected gather, with no round-by-round dependence.
    """
    if type(seg) is SplitBatch:
        return _by_part(
            bypass_read_batch, seg, (lines, insert_draw), tags, dirty, known_resident
        )
    n = int(lines.size)
    sets = seg.keys
    if seg.collision_free:
        hit = tags[sets] == lines
        miss = ~hit
        allocate = miss & insert_draw
        dirty_tagged = miss & dirty[sets]
        dirty_evict = allocate & dirty[sets]

        alloc_sets = sets[allocate]
        tags[alloc_sets] = lines[allocate]
        dirty[alloc_sets] = False
        known_resident[sets[hit | allocate]] = True
        return BypassReadCounts(
            n,
            int(miss.sum()),
            int(allocate.sum()),
            int(dirty_tagged.sum()),
            int(dirty_evict.sum()),
        )

    g = seg.order
    gl = lines[g]
    gd = insert_draw[g]
    gsets = seg.sorted_keys
    lead_sets = seg.leaders
    lengths = seg.lengths
    pos = positions(n)

    # Inclusive "last draw-selected position so far" via a running max;
    # positions from earlier segments fall below the segment start.
    last_drawn = np.maximum.accumulate(np.where(gd, pos, -1))
    prev_drawn = np.empty_like(last_drawn)
    prev_drawn[0] = -1
    prev_drawn[1:] = last_drawn[:-1]
    has_prev = prev_drawn >= np.repeat(seg.first_pos, lengths)
    resident = np.where(has_prev, gl[np.maximum(prev_drawn, 0)], tags[gsets])

    hit = gl == resident
    miss = ~hit
    allocate = miss & gd
    # Pre-batch dirty state survives up to and including the segment's
    # first allocation, which evicts it.
    first_alloc = seg.first_true(allocate)
    seg_alloc = first_alloc < n
    lead_dirty = dirty[lead_sets]
    tagged_until = np.repeat(np.where(lead_dirty, first_alloc, -1), lengths)
    dirty_tagged = int(np.count_nonzero(miss & (pos <= tagged_until)))
    dirty_evict = int(np.count_nonzero(seg_alloc & lead_dirty))

    final_drawn = last_drawn[seg.last_pos]
    # A segment's final tag is its last selected line; the gather is safe
    # because seg_alloc implies at least one selected position (a
    # selected hit re-installs its own value, which is a no-op).
    seg_selected = final_drawn >= seg.first_pos
    chosen = np.flatnonzero(seg_selected)
    tags[lead_sets[chosen]] = gl[final_drawn[chosen]]
    dirty[lead_sets[seg_alloc]] = False
    seg_touched = seg.first_true(hit | allocate) < n
    known_resident[lead_sets[seg_touched]] = True
    return BypassReadCounts(
        n,
        int(np.count_nonzero(miss)),
        int(np.count_nonzero(allocate)),
        dirty_tagged,
        dirty_evict,
    )


class PrefetchCounts(NamedTuple):
    """Outcomes of one next-line prefetch fill pass."""

    installs: int
    dirty_evictions: int


def prefetch_fill_batch(
    candidates: np.ndarray,
    seg: Grouping,
    tags: np.ndarray,
    dirty: np.ndarray,
    known_resident: np.ndarray,
) -> PrefetchCounts:
    """Install prefetch candidates, skipping already-resident lines.

    Same recurrence as reads — a candidate installs iff it differs from
    the previous occupant (the prior candidate, or the resident tag) —
    but without hit accounting, and a set untouched by any install keeps
    its ``known_resident`` bit unchanged.
    """
    if type(seg) is SplitBatch:
        return _by_part(prefetch_fill_batch, seg, (candidates,), tags, dirty, known_resident)
    n = int(candidates.size)
    if not n:
        return PrefetchCounts(0, 0)
    sets = seg.keys
    if seg.collision_free:
        install = tags[sets] != candidates
        dirty_evict = install & dirty[sets]
        inst_sets = sets[install]
        tags[inst_sets] = candidates[install]
        dirty[inst_sets] = False
        known_resident[inst_sets] = True
        return PrefetchCounts(int(install.sum()), int(dirty_evict.sum()))

    gc = candidates[seg.order]
    lead_sets = seg.leaders
    install = _differs_from_previous(gc, seg, tags[lead_sets])
    # Only a segment's first install can evict pre-batch dirty state.
    seg_installed = seg.first_true(install) < n
    dirty_evict = int(np.count_nonzero(seg_installed & dirty[lead_sets]))

    tags[lead_sets] = gc[seg.last_pos]
    dirty[lead_sets] &= ~seg_installed
    known_resident[lead_sets] |= seg_installed
    return PrefetchCounts(int(np.count_nonzero(install)), dirty_evict)
