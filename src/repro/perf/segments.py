"""Segmented-batch primitives: one-sort decomposition of request batches.

A *segmented batch* groups the positions of one request batch by an
integer key — for the cache models, the set index — while preserving the
original order of requests within each key.  A single stable O(n log n)
argsort yields everything the batched cache engines need:

* ``order`` — batch positions regrouped key-major, original order kept
  within each key (so ``values[order]`` walks each set's accesses in
  program order);
* ``first`` / ``last`` — occurrence masks over the grouped view;
* segmented prefix counts (:meth:`SegmentedBatch.exclusive_count`) and
  per-segment totals (:meth:`SegmentedBatch.segment_total`) — the
  building blocks of the closed-form duplicate-resolution recurrences in
  :mod:`repro.cache.engine`;
* rounds of pairwise-distinct keys (:meth:`SegmentedBatch.rounds`), for
  the one recurrence without a closed form (LRU), with each run of
  equal values inside a segment folded into its first occurrence.

The legacy decomposition re-ran ``np.unique`` — itself a stable argsort —
once *per collision round*, so a batch where every line maps to one set
cost O(n^2 log n).  Everything here is derived from one sort, so
adversarial all-same-set batches cost the same O(n log n) as
collision-free ones.

Uniform traffic skips even the one sort: a :class:`DuplicateProbe` does
an O(n) scatter/gather over a persistent per-model scratch array to
prove a batch collision-free, and :meth:`SegmentedBatch.distinct` then
builds the grouped view as the identity permutation — no argsort at all.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np


class Round(NamedTuple):
    """One round of :meth:`SegmentedBatch.rounds`: a run head per key."""

    #: Batch positions of the run heads, at most one per key.
    index: np.ndarray
    #: Per head: occurrence rank, within its key, of its run's last element.
    last_rank: np.ndarray
    #: Per head: run length (the head plus the repeats folded into it).
    size: np.ndarray


class SegmentedBatch:
    """A batch of integer keys grouped into contiguous segments.

    All mask/count attributes are indexed by *sorted position* (the
    key-major grouped view); ``order`` maps sorted positions back to the
    original batch positions.  Segments appear in ascending key order,
    and within a segment sorted positions preserve original batch order.
    """

    __slots__ = (
        "keys",
        "order",
        "sorted_keys",
        "first",
        "last",
        "first_pos",
        "collision_free",
        "_segment_id",
    )

    def __init__(self, keys: np.ndarray) -> None:
        n = keys.size
        self.keys = keys
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]
        if n:
            boundary = self.sorted_keys[1:] != self.sorted_keys[:-1]
            self.first = np.concatenate(([True], boundary))
            self.last = np.concatenate((boundary, [True]))
        else:
            self.first = np.zeros(0, dtype=bool)
            self.last = np.zeros(0, dtype=bool)
        self.first_pos = np.flatnonzero(self.first)
        self.collision_free = bool(self.first_pos.size == n)
        self._segment_id: Optional[np.ndarray] = None

    @classmethod
    def distinct(cls, keys: np.ndarray) -> "SegmentedBatch":
        """Grouped view of a batch *proven* to have pairwise-distinct keys.

        Skips the argsort entirely: every position is its own segment, so
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
        self._segment_id = self.order
        return self

    # -- derived views (computed on first use) -----------------------------

    @property
    def num_segments(self) -> int:
        """Number of distinct keys in the batch."""
        return int(self.first_pos.size)

    @property
    def max_multiplicity(self) -> int:
        """Occurrences of the most frequent key (0 for an empty batch)."""
        if self.collision_free:
            return int(self.keys.size > 0)
        return int(np.diff(self.first_pos, append=self.keys.size).max())

    @property
    def leaders(self) -> np.ndarray:
        """The distinct keys, ascending (one per segment)."""
        return self.sorted_keys[self.first]

    @property
    def segment_id(self) -> np.ndarray:
        """Segment index of each sorted position (0..num_segments-1)."""
        if self._segment_id is None:
            self._segment_id = np.cumsum(self.first) - 1
        return self._segment_id

    # -- segmented scans ---------------------------------------------------

    def exclusive_count(self, mask: np.ndarray) -> np.ndarray:
        """Per sorted position: how many True entries precede it *within
        its segment* (strictly before, i.e. an exclusive segmented scan).
        """
        before = np.cumsum(mask) - mask
        return before - before[self.first_pos[self.segment_id]]

    def segment_total(self, mask: np.ndarray) -> np.ndarray:
        """Per-segment count of True entries (aligned with ``leaders``)."""
        if not mask.size:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(mask.astype(np.int64), self.first_pos)

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

    With a ``probe``, a batch proven collision-free skips the argsort and
    comes back as the sort-free identity grouping
    (:meth:`SegmentedBatch.distinct`).
    """
    if probe is not None and probe.collision_free(keys):
        return SegmentedBatch.distinct(keys)
    return SegmentedBatch(keys)
