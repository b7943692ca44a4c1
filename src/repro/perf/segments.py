"""Segmented-batch primitives: one-sort decomposition of request batches.

A *segmented batch* groups the positions of one request batch by an
integer key — for the cache models, the set index — while preserving the
original order of requests within each key.  A single O(n log n)
grouping sort yields everything the batched cache engines need:

* ``order`` — batch positions regrouped key-major, original order kept
  within each key (so ``values[order]`` walks each set's accesses in
  program order), and ``sorted_keys``, the keys in that order;
* each segment's start and end in the grouped view (``first_pos``,
  ``last_pos``) and its length (``lengths``), so a per-segment value —
  the segment's key (``leaders``), its last element — is one gather at
  those positions, with no pass over the batch;
* first events (:meth:`SegmentedBatch.first_true`): each segment's first
  position where a mask holds — the one scan the closed-form
  duplicate-resolution recurrences in :mod:`repro.cache.engine` need,
  because all they ask of a segment is whether an event happens and how
  long the prefix before it is;
* rounds of pairwise-distinct keys (:meth:`SegmentedBatch.rounds`), for
  the one recurrence without a closed form (LRU), with each run of
  equal values inside a segment folded into its first occurrence.

The grouping is exactly ``np.argsort(keys, kind="stable")``, but the
input picks how it is computed.  When the key bound leaves room, the
keys are packed as ``key << b | position``: the packed values are
unique, so one in-place (SIMD) ``ndarray.sort`` orders them as the
stable argsort orders the keys, and the high and low bits are then
``sorted_keys`` and ``order``, with no index indirection and no gather.
A nearly sorted batch (at most ``n / PRESORTED_DESCENTS`` descents, as
append-heavy windows are) keeps the stable argsort instead: timsort is
linear on long ascending runs, which the packed sort is not.  The
cut-off is n/256: kvtrace's log-append windows (at most 0.0026 n
descents) fall below it and its B-tree windows (0.0062-0.0079 n) above
it, and on a B-tree window the packed sort takes about 35 % less time
than timsort.

Every read-only ``arange(n)`` the grouping and the closed forms need —
the packed sort's low bits, :meth:`SegmentedBatch.first_true`'s
positions, the identity grouping's ``order`` — is a view from
:func:`positions`, one shared array bounded by
:data:`repro.config.BATCH_LINES`, so no call allocates its own.

The legacy decomposition re-ran ``np.unique`` — itself a stable argsort —
once *per collision round*, so a batch where every line maps to one set
cost O(n^2 log n).  Everything here is derived from one sort, so
adversarial all-same-set batches cost the same O(n log n) as
collision-free ones.

Collision-free traffic skips even the one sort.  A :class:`DuplicateProbe`
proves a batch's keys pairwise distinct in O(n), in one of three ways.
Strictly increasing keys are distinct by order alone, which one
comparison of each key with its successor shows, and so is any rotation
of them; those proofs need no memory, so they cover the small ascending
batches (a tensor's sampled lines, ``first + arange(0, n, stride)``,
whose set range may wrap past the last set) that a large key space
would make too costly to scatter.  Any other batch is scattered into a
persistent per-model scratch array and gathered back, when the scratch
is affordable.  A proven batch becomes :meth:`SegmentedBatch.distinct`,
the identity grouping, which allocates nothing per batch — no sort at
all.

A batch whose keys mostly occur once sorts only the keys that repeat.
When the probe's scatter/gather finds repeats, it can also say which
positions hold them (:meth:`DuplicateProbe.colliding`), and when at most
half of the batch does, :func:`segment` returns a :class:`SplitBatch`:
the *singleton* positions, whose key occurs nowhere else in the batch,
as the sort-free identity grouping, and the *colliding* positions,
grouped by a sort over only their keys.  The two parts share no key,
so a closed form may treat them as two batches.  kvtrace's log-append
write windows are 97 % singletons on their direct-mapped geometry, so
their sort shrinks from about 213k keys to about 6k.

A contiguous run of keys needs no proof at all.  :func:`segment`
accepts a ``range`` (the cache segmenter passes one for a run of
consecutive lines whose sets do not wrap) as distinct by construction:
its grouping's :attr:`~SegmentedBatch.index` is a ``slice``, so the
collision-free closed forms read and write state through contiguous
views, and the per-line ``keys`` array is built only if a consumer
reads it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.config import BATCH_LINES


class Round(NamedTuple):
    """One round of :meth:`SegmentedBatch.rounds`: a run head per key."""

    #: Batch positions of the run heads, at most one per key.
    index: np.ndarray
    #: Per head: occurrence rank, within its key, of its run's last element.
    last_rank: np.ndarray
    #: Per head: run length (the head plus the repeats folded into it).
    size: np.ndarray


#: Presortedness cut-off of the grouping sort: a batch with at most
#: ``n / PRESORTED_DESCENTS`` descents (``keys[i + 1] < keys[i]``) is
#: grouped by timsort, which is linear on long ascending runs.  kvtrace's
#: log-append windows (at most 0.0026 n descents) stay below it; its
#: B-tree windows (0.0062-0.0079 n) and YCSB windows (0.042 n) sort
#: packed, which took seed 7's 20 direct-mapped B-tree windows from 76 ms
#: (timsort) to 49 ms.
PRESORTED_DESCENTS = 256

_POSITIONS = np.arange(BATCH_LINES, dtype=np.int64)
_POSITIONS.flags.writeable = False


def positions(n: int) -> np.ndarray:
    """``np.arange(n, dtype=np.int64)``, read-only.

    Up to :data:`repro.config.BATCH_LINES` it is a view of one shared
    array, so a caller that only reads its positions allocates nothing;
    a larger request gets a fresh array and leaves the shared one as it
    is.
    """
    if n <= _POSITIONS.size:
        return _POSITIONS[:n]
    fresh = np.arange(n, dtype=np.int64)
    fresh.flags.writeable = False
    return fresh


def _stable_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)`` by the stable argsort (timsort)."""
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _packed_sort(keys: np.ndarray, shift: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)`` by sorting ``key << shift | position``.

    Requires every packed value to fit in an int64.  The values are
    unique, so any sort leaves them in the stable argsort's order.
    """
    packed = np.left_shift(keys, shift, dtype=np.int64)
    packed |= positions(keys.size)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return order, packed


def _group(keys: np.ndarray, bound: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``np.argsort(keys, kind="stable")`` and the keys in that order.

    ``bound`` (keys lie in ``[0, bound)``) decides whether the packed
    sort fits in an int64; without one the stable argsort runs.
    """
    n = keys.size
    shift = (n - 1).bit_length()
    if (
        bound is not None
        and bound <= 1 << (63 - shift)
        and np.count_nonzero(keys[1:] < keys[:-1]) * PRESORTED_DESCENTS > n
    ):
        return _packed_sort(keys, shift)
    return _stable_sort(keys)


class SegmentedBatch:
    """A batch of integer keys grouped into contiguous segments.

    All mask/position attributes are indexed by *sorted position* (the
    key-major grouped view); ``order`` maps sorted positions back to the
    original batch positions.  Segments appear in ascending key order,
    and within a segment sorted positions preserve original batch order.
    Per-segment arrays (``first_pos``, ``last_pos``, ``lengths``,
    ``leaders`` and the result of :meth:`first_true`) are aligned with
    one another, and a per-segment value is a gather at ``first_pos``
    or ``last_pos``.

    The one exception is :meth:`distinct`, the identity grouping of a
    batch proven collision-free: its segments appear in batch order, and
    its grouping arrays are built only when something reads them.

    ``index`` selects each batch position's key from a per-key state
    array: the ``keys`` array itself or, for a contiguous range of keys,
    the equivalent ``slice``, under which a gather is a view and a
    scatter a slice assignment.
    """

    __slots__ = (
        "index",
        "collision_free",
        "_size",
        "_keys",
        "_sorted_keys",
        "_order",
        "_first_pos",
        "_last_pos",
        "_lengths",
    )

    def __init__(self, keys: np.ndarray, bound: Optional[int] = None) -> None:
        """Group ``keys``; ``bound``, if given, must exceed every key
        (and no key may be negative)."""
        n = keys.size
        self.index = self._keys = keys
        self._size = n
        self._order, self._sorted_keys = _group(keys, bound)
        opens = np.empty(n, dtype=bool)
        if n:
            opens[0] = True
            np.not_equal(self._sorted_keys[1:], self._sorted_keys[:-1], out=opens[1:])
        self._first_pos = np.flatnonzero(opens)
        self.collision_free = bool(self._first_pos.size == n)
        self._last_pos = self._lengths = None

    @classmethod
    def distinct(cls, keys: Union[np.ndarray, range]) -> "SegmentedBatch":
        """Grouped view of a batch *proven* to have pairwise-distinct keys.

        Skips the sort entirely: every position is its own segment, so
        the identity permutation is a valid grouping (segments appear in
        batch order rather than ascending key order, which no consumer of
        a collision-free batch depends on).  Allocates nothing: the
        collision-free closed forms read only ``index``, so ``order`` and
        ``first_pos`` (views of :func:`positions`) are taken on first
        access, and ``keys`` and ``sorted_keys`` are built on first
        access when ``keys`` is a ``range``, whose ``index`` is the
        equivalent ``slice``.  Callers
        must have established distinctness, e.g. via
        :class:`DuplicateProbe`; a ``range`` is distinct by construction.
        """
        self = cls.__new__(cls)
        if isinstance(keys, range):
            self.index = slice(keys.start, keys.stop)
            self._keys = None
            self._size = len(keys)
        else:
            self.index = self._keys = keys
            self._size = keys.size
        self.collision_free = True
        self._sorted_keys = self._order = None
        self._first_pos = self._last_pos = self._lengths = None
        return self

    # -- keys (a contiguous range builds them on first use) -----------------

    @property
    def keys(self) -> np.ndarray:
        """Each batch position's key, in batch order."""
        if self._keys is None:
            self._keys = np.arange(self.index.start, self.index.stop, dtype=np.int64)
        return self._keys

    @property
    def sorted_keys(self) -> np.ndarray:
        """The keys in grouped order: ``keys[order]``."""
        if self._sorted_keys is None:
            return self.keys  # the identity grouping
        return self._sorted_keys

    # -- grouping arrays (an identity grouping builds them on first use) ---

    @property
    def order(self) -> np.ndarray:
        """Batch position of each sorted position."""
        if self._order is None:
            self._order = positions(self._size)  # the identity grouping
        return self._order

    @property
    def first_pos(self) -> np.ndarray:
        """Sorted position of each segment's start."""
        if self._first_pos is None:
            self._first_pos = positions(self._size)  # the identity grouping
        return self._first_pos

    @property
    def last_pos(self) -> np.ndarray:
        """Sorted position of each segment's end."""
        if self._last_pos is None:
            first_pos = self.first_pos
            last_pos = np.empty_like(first_pos)
            last_pos[:-1] = first_pos[1:]
            last_pos[-1:] = self._size
            last_pos -= 1
            self._last_pos = last_pos
        return self._last_pos

    # -- derived views (computed on first use) -----------------------------

    @property
    def num_segments(self) -> int:
        """Number of distinct keys in the batch."""
        return int(self._size if self.collision_free else self._first_pos.size)

    @property
    def lengths(self) -> np.ndarray:
        """Occurrences of each segment's key."""
        if self._lengths is None:
            self._lengths = np.diff(self.first_pos, append=self._size)
        return self._lengths

    @property
    def max_multiplicity(self) -> int:
        """Occurrences of the most frequent key (0 for an empty batch)."""
        if self.collision_free:
            return int(self._size > 0)
        return int(self.lengths.max())

    @property
    def leaders(self) -> np.ndarray:
        """Each segment's key: ascending for a sorted grouping, in batch
        order for the identity grouping (:meth:`distinct`)."""
        return self.sorted_keys[self.first_pos]

    # -- segmented scan ----------------------------------------------------

    def first_true(self, mask: np.ndarray) -> np.ndarray:
        """Per segment: the sorted position of its first True entry in
        ``mask`` (a sorted-order bool array), or ``n`` if it has none.

        A segment's prefix before the event is then
        ``min(first_true - first_pos, lengths)`` long, and the segment
        sees the event at all iff ``first_true < n``.
        """
        n = mask.size
        if not n:
            return np.zeros(0, dtype=np.int64)
        return np.minimum.reduceat(np.where(mask, positions(n), n), self.first_pos)

    # -- round decomposition (for models without a closed form) ------------

    def rounds(self, values: np.ndarray) -> Iterator[Round]:
        """Partition the batch into rounds of pairwise-distinct keys.

        ``values`` (batch order) split each segment into *runs*: maximal
        stretches of consecutive occurrences with equal values.  Only a
        run's head enters a round; the run's repeats fold into it and
        are reported through the head's ``size`` and ``last_rank``.
        Round ``r`` holds the ``r``-th run head of every key that has
        one, in ascending key order, so a batch takes as many rounds as
        its largest per-key run count.  With pairwise-distinct values
        every occurrence is its own run, and round ``r`` holds the
        positions of occurrence rank ``r`` — the rounds the legacy
        per-round ``np.unique`` loop produced, but from one sort.
        """
        n = self._size
        if not n:
            return
        # Run heads as sorted positions: segment starts and value changes.
        grouped = values[self.order]
        seg_start = self.first_pos
        run_start = np.empty(n, dtype=bool)
        np.not_equal(grouped[1:], grouped[:-1], out=run_start[1:])
        run_start[seg_start] = True
        heads = np.flatnonzero(run_start)
        ends = np.empty_like(heads)  # one past each run's last sorted position
        ends[:-1] = heads[1:]
        ends[-1] = n
        # Walk every key's runs in step, dropping keys whose runs are spent.
        run = np.searchsorted(heads, seg_start)  # each key's first run
        runs_left = np.diff(run, append=heads.size)
        while run.size:
            head, end = heads[run], ends[run]
            yield Round(self.order[head], end - 1 - seg_start, end - head)
            more = runs_left > 1
            run = run[more] + 1
            runs_left = runs_left[more] - 1
            seg_start = seg_start[more]


class DuplicateProbe:
    """O(n) duplicate detection over a bounded key space.

    Three proofs, cheapest first:

    * **Order.**  Strictly increasing keys are pairwise distinct, and
      one comparison of each key with its successor shows it — no
      memory beyond the comparison.  A tensor's sampled lines
      (``first + arange(0, n, stride)``) pass whenever their set range
      does not wrap past the last set.
    * **Rotation.**  Where the scratch below would be declined, a batch
      with exactly one descent whose last key is below its first is
      accepted: it is two strictly increasing runs, and the second
      ends below where the first begins, so their ranges are disjoint.
      That is a sampled tensor whose set range wraps past the last set.
    * **Scatter/gather.**  Each batch position is scattered into a
      persistent per-key scratch slot and gathered back: a position that
      does not read its own value was overwritten by a later occurrence
      of the same key, so the batch has duplicates.  The scratch is never
      cleared — every probe writes each slot it will read before reading
      it — so the per-batch cost is O(n) regardless of key-space size,
      and the only standing cost is the scratch allocation (one int64
      per key, made lazily).

    A ``True`` result is always a proof: the batch is genuinely
    collision-free, so callers may take semantic shortcuts
    (single-round processing, sort-free grouping) on it.  A ``False``
    result is not a proof of duplicates: to keep the standing allocation
    proportional to real work, the probe declines (returns ``False``
    without allocating) a batch that is neither in order nor a rotation
    of an ordered one until it sees one for which the scratch would be
    at most ``MAX_SLOTS_PER_KEY`` slots per batch element.  A declined
    batch falls back to the grouping sort, which is exact either way, so
    the probe is sound but not complete.

    A batch the scatter/gather refuses has repeats, and the gather shows
    where: :meth:`colliding` turns it into the mask of every position
    whose key repeats, which :func:`segment` splits the batch by.
    """

    #: Refuse to allocate scratch larger than this many slots per element
    #: of the batch that triggered the allocation.
    MAX_SLOTS_PER_KEY = 64

    __slots__ = ("space", "_scratch", "_refused")

    def __init__(self, space: int) -> None:
        if space <= 0:
            raise ValueError(f"key space must be positive, got {space}")
        self.space = space
        self._scratch: Optional[np.ndarray] = None
        #: The batch the last scatter/gather refused, if it refused one,
        #: and the mask of its positions that lost their scratch slot.
        self._refused: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def collision_free(self, keys: np.ndarray) -> bool:
        """Whether ``keys`` (all in ``[0, space)``) are provably pairwise
        distinct; ``False`` when they repeat or the probe declines."""
        n = keys.size
        if n <= 1:
            return True
        if n > self.space:
            return False  # pigeonhole: some key must repeat
        # Strictly increasing.  The O(1) end check goes first: an
        # unordered batch whose last key is not above its first skips
        # the O(n) comparison.
        if keys[0] < keys[-1] and (keys[1:] > keys[:-1]).all():
            return True
        scratch = self._scratch
        if scratch is None:
            if self.space > n * self.MAX_SLOTS_PER_KEY:
                # Scratch would dwarf the batch: prove a rotation of
                # increasing keys by its one descent, or let it sort.
                return bool(
                    keys[-1] < keys[0]
                    and np.count_nonzero(keys[1:] <= keys[:-1]) == 1
                )
            scratch = self._scratch = np.empty(self.space, dtype=np.int64)
        batch_positions = positions(n)
        scratch[keys] = batch_positions
        lost = scratch[keys] != batch_positions
        self._refused = (keys, lost) if lost.any() else None
        return self._refused is None

    def colliding(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Per position of ``keys``: whether its key occurs elsewhere in
        the batch, when at most half of the positions do; else ``None``.

        Reads the probe's last scatter/gather, and is ``None`` unless
        that refused ``keys``: a batch that was declined, or refused by
        pigeonhole, was never scattered.  Every position that lost its
        scratch slot holds a repeated key, every repeated key has a
        loser, and the key's slot still holds the one position that won
        it.  So the losers plus the positions in their keys' slots are
        every occurrence of every repeated key, marked in O(losers)
        beyond the gather, whichever occurrence won.  A key that occurs
        ``m >= 2`` times has ``m - 1`` losers, so the colliding positions
        outnumber the losers: when the losers are half of the batch or
        more, the split is refused before marking anything.
        """
        refused, self._refused = self._refused, None
        if refused is None or refused[0] is not keys:
            return None
        n, colliding = keys.size, refused[1]
        if 2 * np.count_nonzero(colliding) >= n:
            return None
        colliding[self._scratch[keys[colliding]]] = True
        if 2 * np.count_nonzero(colliding) > n:
            return None
        return colliding


class SplitBatch:
    """A batch grouped in two parts: singleton keys and repeated keys.

    ``parts`` holds two ``(at, grouping)`` pairs, where ``at`` selects
    the part's positions from any batch-order array.  The first part is
    the positions whose key occurs nowhere else in the batch (``at`` a
    boolean mask, which selects without building a position array), with
    the identity grouping of their keys (:meth:`SegmentedBatch.distinct`,
    no sort); the second is the positions whose key repeats (``at`` their
    ascending positions, a small array), with the grouping of only their
    keys.  Each part keeps batch order, and no key is in both, so a
    closed form may run on each part as a batch of its own: the engine's
    dispatcher (:mod:`repro.cache.engine`) takes every per-request array
    at a part's ``at``, runs the collision-free body on the first part
    and the general body on the second, and scatters per-request outputs
    back to batch order.
    """

    __slots__ = ("size", "parts")

    #: A split batch always has repeats.
    collision_free = False

    def __init__(
        self, keys: np.ndarray, colliding: np.ndarray, bound: Optional[int] = None
    ) -> None:
        """Split ``keys`` by ``colliding``, the mask of positions whose key
        repeats (:meth:`DuplicateProbe.colliding`); ``bound`` is the key
        bound of the colliding part's sort, as for
        :class:`SegmentedBatch`."""
        singles = ~colliding
        repeats = np.flatnonzero(colliding)
        self.size = int(keys.size)
        self.parts = (
            (singles, SegmentedBatch.distinct(keys[singles])),
            (repeats, SegmentedBatch(keys[repeats], bound)),
        )


def segment(
    keys: Union[np.ndarray, range], probe: Optional[DuplicateProbe] = None
) -> Union[SegmentedBatch, SplitBatch]:
    """Group a batch of integer keys.

    A ``range`` of keys is distinct by construction: it becomes the
    sort-free identity grouping (:meth:`SegmentedBatch.distinct`),
    indexed by slice, with no probe call.  With a ``probe``, a key array
    proven collision-free comes back as the identity grouping too, and
    one whose repeats the probe locates (:meth:`DuplicateProbe.colliding`)
    on at most half of its positions as a :class:`SplitBatch`.  Any other
    batch is grouped whole, with the probe's key space as the key bound.
    """
    if isinstance(keys, range):
        return SegmentedBatch.distinct(keys)
    if probe is None:
        return SegmentedBatch(keys)
    if probe.collision_free(keys):
        return SegmentedBatch.distinct(keys)
    colliding = probe.colliding(keys)
    if colliding is not None:
        return SplitBatch(keys, colliding, bound=probe.space)
    return SegmentedBatch(keys, bound=probe.space)
