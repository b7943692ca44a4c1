"""Segmented-batch primitives: one-sort decomposition of request batches.

A *segmented batch* groups the positions of one request batch by an
integer key — for the cache models, the set index — while preserving the
original order of requests within each key.  A single O(n log n)
grouping sort yields everything the batched cache engines need:

* ``order`` — batch positions regrouped key-major, original order kept
  within each key (so ``values[order]`` walks each set's accesses in
  program order), and ``sorted_keys``, the keys in that order;
* ``first`` / ``last`` — occurrence masks over the grouped view, with
  each segment's start (``first_pos``) and length (``lengths``);
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
linear on long ascending runs, which the packed sort is not.

The legacy decomposition re-ran ``np.unique`` — itself a stable argsort —
once *per collision round*, so a batch where every line maps to one set
cost O(n^2 log n).  Everything here is derived from one sort, so
adversarial all-same-set batches cost the same O(n log n) as
collision-free ones.

Uniform traffic skips even the one sort: a :class:`DuplicateProbe` does
an O(n) scatter/gather over a persistent per-model scratch array to
prove a batch collision-free, and :meth:`SegmentedBatch.distinct` then
builds the grouped view as the identity permutation — no sort at all.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np


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
#: grouped by timsort, which is linear on long ascending runs.
PRESORTED_DESCENTS = 64


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
    packed |= np.arange(keys.size, dtype=np.int64)
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
    Per-segment arrays (``first_pos``, ``lengths``, ``leaders`` and the
    result of :meth:`first_true`) are aligned with one another.
    """

    __slots__ = (
        "keys",
        "order",
        "sorted_keys",
        "first",
        "last",
        "first_pos",
        "collision_free",
        "_lengths",
    )

    def __init__(self, keys: np.ndarray, bound: Optional[int] = None) -> None:
        """Group ``keys``; ``bound``, if given, must exceed every key
        (and no key may be negative)."""
        n = keys.size
        self.keys = keys
        self.order, self.sorted_keys = _group(keys, bound)
        if n:
            boundary = self.sorted_keys[1:] != self.sorted_keys[:-1]
            self.first = np.concatenate(([True], boundary))
            self.last = np.concatenate((boundary, [True]))
        else:
            self.first = np.zeros(0, dtype=bool)
            self.last = np.zeros(0, dtype=bool)
        self.first_pos = np.flatnonzero(self.first)
        self.collision_free = bool(self.first_pos.size == n)
        self._lengths: Optional[np.ndarray] = None

    @classmethod
    def distinct(cls, keys: np.ndarray) -> "SegmentedBatch":
        """Grouped view of a batch *proven* to have pairwise-distinct keys.

        Skips the sort entirely: every position is its own segment, so
        the identity permutation is a valid grouping (segments appear in
        batch order rather than ascending key order, which no consumer of
        a collision-free batch depends on).  Callers must have
        established distinctness, e.g. via :class:`DuplicateProbe`.
        """
        self = cls.__new__(cls)
        n = keys.size
        self.keys = keys
        self.order = np.arange(n, dtype=np.int64)
        self.sorted_keys = keys
        self.first = np.ones(n, dtype=bool)
        self.last = self.first
        self.first_pos = self.order
        self.collision_free = True
        self._lengths = None
        return self

    # -- derived views (computed on first use) -----------------------------

    @property
    def num_segments(self) -> int:
        """Number of distinct keys in the batch."""
        return int(self.first_pos.size)

    @property
    def lengths(self) -> np.ndarray:
        """Occurrences of each segment's key."""
        if self._lengths is None:
            self._lengths = np.diff(self.first_pos, append=self.keys.size)
        return self._lengths

    @property
    def max_multiplicity(self) -> int:
        """Occurrences of the most frequent key (0 for an empty batch)."""
        if self.collision_free:
            return int(self.keys.size > 0)
        return int(self.lengths.max())

    @property
    def leaders(self) -> np.ndarray:
        """The distinct keys, ascending (one per segment)."""
        return self.sorted_keys[self.first]

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
        return np.minimum.reduceat(np.where(mask, np.arange(n), n), self.first_pos)

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
        n = self.keys.size
        if not n:
            return
        if self.collision_free:
            yield Round(
                np.arange(n, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
                np.ones(n, dtype=np.int64),
            )
            return
        # Run heads as sorted positions: segment starts and value changes.
        grouped = values[self.order]
        run_start = self.first.copy()
        run_start[1:] |= grouped[1:] != grouped[:-1]
        heads = np.flatnonzero(run_start)
        ends = np.empty_like(heads)  # one past each run's last sorted position
        ends[:-1] = heads[1:]
        ends[-1] = n
        # Walk every key's runs in step, dropping keys whose runs are spent.
        run = np.flatnonzero(self.first[heads])  # each key's first run
        runs_left = np.diff(run, append=heads.size)
        seg_start = self.first_pos
        while run.size:
            head, end = heads[run], ends[run]
            yield Round(self.order[head], end - 1 - seg_start, end - head)
            more = runs_left > 1
            run = run[more] + 1
            runs_left = runs_left[more] - 1
            seg_start = seg_start[more]


class DuplicateProbe:
    """O(n) duplicate detection over a bounded key space.

    Scatters each batch position into a persistent per-key scratch slot
    and gathers it back: a position that does not read its own value was
    overwritten by a later occurrence of the same key, so the batch has
    duplicates.  The scratch is never cleared — every probe writes each
    slot it will read before reading it — so the per-batch cost is O(n)
    regardless of key-space size, and the only standing cost is the
    scratch allocation (one int64 per key, made lazily).

    The probe is *sound in both directions*: it returns ``True`` iff the
    batch is genuinely collision-free, so callers may take semantic
    shortcuts (single-round processing, sort-free grouping) on a
    ``True`` result.  To keep the standing allocation proportional to
    real work, the probe declines (returns ``False`` without allocating)
    until it sees a batch for which the scratch would be at most
    ``MAX_SLOTS_PER_KEY`` slots per batch element — tiny batches over a
    huge key space fall back to the sort, which is cheap at that size
    anyway.
    """

    #: Refuse to allocate scratch larger than this many slots per element
    #: of the batch that triggered the allocation.
    MAX_SLOTS_PER_KEY = 64

    __slots__ = ("space", "_scratch")

    def __init__(self, space: int) -> None:
        if space <= 0:
            raise ValueError(f"key space must be positive, got {space}")
        self.space = space
        self._scratch: Optional[np.ndarray] = None

    def collision_free(self, keys: np.ndarray) -> bool:
        """Whether ``keys`` (all in ``[0, space)``) are pairwise distinct."""
        n = keys.size
        if n <= 1:
            return True
        if n > self.space:
            return False  # pigeonhole: some key must repeat
        scratch = self._scratch
        if scratch is None:
            if self.space > n * self.MAX_SLOTS_PER_KEY:
                return False  # scratch would dwarf the batch; let it sort
            scratch = self._scratch = np.empty(self.space, dtype=np.int64)
        positions = np.arange(n, dtype=np.int64)
        scratch[keys] = positions
        return bool(np.array_equal(scratch[keys], positions))


def segment(keys: np.ndarray, probe: Optional[DuplicateProbe] = None) -> SegmentedBatch:
    """Group a batch of integer keys into a :class:`SegmentedBatch`.

    With a ``probe``, a batch proven collision-free skips the sort and
    comes back as the sort-free identity grouping
    (:meth:`SegmentedBatch.distinct`); any other batch is grouped with
    the probe's key space as the key bound.
    """
    if probe is None:
        return SegmentedBatch(keys)
    if probe.collision_free(keys):
        return SegmentedBatch.distinct(keys)
    return SegmentedBatch(keys, bound=probe.space)
