"""Scalar reference implementations: one oracle per cache model.

Each oracle is the most literal possible Python, one access at a time.
They exist to (a) document the protocols and (b) serve as the ground
truth every batch engine is property-tested against, each production
model against exactly one oracle:

* :class:`ReferenceCache` — the Figure-3 state machine below, for
  :class:`~repro.cache.direct_mapped.DirectMappedCache` and its
  write-around and no-DDO ablations;
* :class:`ScalarMissPredictor`, :class:`ScalarBypass` and
  :class:`ScalarNextLinePrefetch` — the :mod:`repro.cache.research`
  variants, as :class:`ReferenceCache` subclasses that replace only the
  read path their variant changes;
* :class:`ScalarSectorCache` — :class:`~repro.cache.sector.SectorCache`;
* :class:`ScalarLRUCache` —
  :class:`~repro.cache.alternatives.SetAssociativeCache`.

Figure 3, in words:

**LLC read.**  The IMC always issues a DRAM read, fetching data plus the
tag stored in the ECC bits.  If the tag matches, the data is forwarded —
one access total.  On a miss the *miss handler* runs: read the requested
line from NVRAM, insert it into the DRAM cache (a DRAM write), and if
the line it displaces is dirty, write that line back to NVRAM.

**LLC write.**  If the Dirty Data Optimization applies, the write is
forwarded straight to DRAM with no tag check — one access total.
Otherwise the IMC first issues a DRAM read for a tag check.  On a hit
the line is updated in place (one more DRAM write).  On a miss the same
miss handler runs — the controller *always inserts on a miss*, even for
a write that fully overwrites the line (Section IV-B's key finding) —
and then the incoming line is written to DRAM, for up to five accesses.

**Dirty Data Optimization (Section IV-C).**  Observed with the
read-modify-write benchmark: when a line was brought into the DRAM
cache by an earlier demand read, the eventual LLC write-back of that
line skips its tag check.  The paper could not identify the exact
hardware mechanism (it is not an inclusive directory); we model it as a
"known resident" bit set by any tag-checked read of the line and cleared
whenever the set's occupant changes without a read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cache.base import as_lines
from repro.perf.counters import TagStats, Traffic


@dataclass
class SetState:
    """One resident line: a direct-mapped set's occupant, or an LRU way."""

    tag: int
    dirty: bool
    #: DDO eligibility: a demand read has checked this line's tag since
    #: it was installed.
    known_resident: bool


class ReferenceCache:
    """One-access-at-a-time model of the 2LM DRAM cache.

    Semantically identical to ``DirectMappedCache`` (the vectorized
    engine), just slow and obvious.
    """

    def __init__(
        self,
        num_sets: int,
        *,
        ddo_enabled: bool = True,
        insert_on_write_miss: bool = True,
    ) -> None:
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        self.num_sets = num_sets
        self.ddo_enabled = ddo_enabled
        self.insert_on_write_miss = insert_on_write_miss
        self._sets: Dict[int, SetState] = {}

    def reset(self) -> None:
        self._sets.clear()

    # -- single-access protocol -------------------------------------------

    def _read_one(self, line: int, traffic: Traffic, tags: TagStats) -> bool:
        """One LLC read; returns whether it missed."""
        traffic.dram_reads += 1  # fetch tag and data, check tag
        return self._lookup(line, traffic, tags)

    def _lookup(self, line: int, traffic: Traffic, tags: TagStats) -> bool:
        """Tag lookup, running the miss handler on a miss; True on a miss.

        The DRAM read that fetched the tag is the caller's to charge.
        """
        index = line % self.num_sets
        state = self._sets.get(index)
        if state is not None and state.tag == line:
            tags.hits += 1
            state.known_resident = True
            return False

        # Miss handler (shared with writes, Figure 3 right side).
        if state is not None and state.dirty:
            tags.dirty_misses += 1
            traffic.nvram_writes += 1  # write back evicted dirty line
        else:
            tags.clean_misses += 1
        traffic.nvram_reads += 1  # fetch requested line
        traffic.dram_writes += 1  # insert into cache
        self._sets[index] = SetState(tag=line, dirty=False, known_resident=True)
        return True

    def _write_one(self, line: int, traffic: Traffic, tags: TagStats) -> None:
        index = line % self.num_sets
        state = self._sets.get(index)

        if (
            self.ddo_enabled
            and state is not None
            and state.tag == line
            and state.known_resident
        ):
            # Dirty Data Optimization: no tag check, direct DRAM write.
            tags.ddo_writes += 1
            traffic.dram_writes += 1
            state.dirty = True
            return

        traffic.dram_reads += 1  # tag check
        if state is not None and state.tag == line:
            tags.hits += 1
            traffic.dram_writes += 1  # update data in place
            state.dirty = True
            return

        if state is not None and state.dirty:
            tags.dirty_misses += 1
        else:
            tags.clean_misses += 1

        if self.insert_on_write_miss:
            # The controller always inserts on a miss: write back the
            # evicted line if dirty, fetch the requested line from NVRAM
            # and install it, *then* overwrite it.
            if state is not None and state.dirty:
                traffic.nvram_writes += 1
            traffic.nvram_reads += 1
            traffic.dram_writes += 1  # insert
            traffic.dram_writes += 1  # actual write of the incoming line
            self._sets[index] = SetState(tag=line, dirty=True, known_resident=False)
        else:
            # Ablation variant: write around the cache straight to
            # NVRAM; the set's occupant is left untouched.
            traffic.nvram_writes += 1

    # -- batch interface ----------------------------------------------------

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        self._read_batch(lines.tolist(), traffic, tags)
        traffic.demand_reads = lines.size
        return traffic, tags

    def _read_batch(self, lines: List[int], traffic: Traffic, tags: TagStats) -> None:
        """Read a whole batch; the research-variant oracles override this."""
        for line in lines:
            self._read_one(line, traffic, tags)

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        for line in lines.tolist():
            self._write_one(line, traffic, tags)
        traffic.demand_writes = lines.size
        return traffic, tags

    # -- introspection (for tests) -------------------------------------------

    def contains(self, line: int) -> bool:
        state = self._sets.get(line % self.num_sets)
        return state is not None and state.tag == line

    def is_dirty(self, line: int) -> bool:
        state = self._sets.get(line % self.num_sets)
        return state is not None and state.tag == line and state.dirty


# -- research variants: Figure 3 with one read path changed -------------------


class ScalarMissPredictor(ReferenceCache):
    """Oracle for :class:`~repro.cache.research.MissPredictorCache`.

    A predicted miss skips the tag-check read; a predicted hit that
    missed pays it, and a predicted miss that hit pays a wasted NVRAM
    fetch plus the verification read.  One coin per request, drawn per
    batch in request order.
    """

    def __init__(self, num_sets: int, *, accuracy: float, seed: int) -> None:
        super().__init__(num_sets)
        self.accuracy = accuracy
        self._rng = np.random.default_rng(seed)

    def _read_batch(self, lines: List[int], traffic: Traffic, tags: TagStats) -> None:
        correct = self._rng.random(len(lines)) < self.accuracy
        for line, ok in zip(lines, correct.tolist()):
            hit = self.contains(line)
            predicted_hit = hit if ok else not hit
            if predicted_hit:
                traffic.dram_reads += 1
            elif hit:  # mispredicted hit: verification read + wasted fetch
                traffic.dram_reads += 1
                traffic.nvram_reads += 1
            self._lookup(line, traffic, tags)


class ScalarBypass(ReferenceCache):
    """Oracle for :class:`~repro.cache.research.BypassCache`.

    A read miss allocates only when its coin (one per request, drawn per
    batch in request order) comes up; a bypassed miss is served from
    NVRAM after the tag check and leaves the set's occupant in place.
    """

    def __init__(self, num_sets: int, *, insert_probability: float, seed: int) -> None:
        super().__init__(num_sets)
        self.insert_probability = insert_probability
        self._rng = np.random.default_rng(seed)

    def _read_batch(self, lines: List[int], traffic: Traffic, tags: TagStats) -> None:
        allocate = self._rng.random(len(lines)) < self.insert_probability
        for line, insert in zip(lines, allocate.tolist()):
            if insert or self.contains(line):
                self._read_one(line, traffic, tags)
                continue
            state = self._sets.get(line % self.num_sets)
            traffic.dram_reads += 1  # tag check
            traffic.nvram_reads += 1  # demand fetch, not installed
            if state is not None and state.dirty:
                tags.dirty_misses += 1
            else:
                tags.clean_misses += 1


class ScalarNextLinePrefetch(ReferenceCache):
    """Oracle for :class:`~repro.cache.research.NextLinePrefetchCache`.

    The batch runs a demand pass, then a prefetch pass that fills each
    demand miss's successor in request order unless it is resident.
    """

    def _read_batch(self, lines: List[int], traffic: Traffic, tags: TagStats) -> None:
        missed = []
        for line in lines:
            if self._read_one(line, traffic, tags):
                missed.append(line)
        for line in missed:
            if not self.contains(line + 1):
                # The miss handler's fill; a prefetch is not a demand
                # lookup, so its tag outcome is not counted.
                self._lookup(line + 1, traffic, TagStats())


# -- sector cache --------------------------------------------------------------


@dataclass
class SectorState:
    """One sector set: its sector tag and per-line bits as offset sets."""

    tag: int
    valid: Set[int] = field(default_factory=set)
    dirty: Set[int] = field(default_factory=set)


class ScalarSectorCache:
    """Oracle for :class:`~repro.cache.sector.SectorCache`.

    Direct-mapped at sector granularity.  A line miss in a resident
    sector, and any sector miss, fetch a footprint of lines starting at
    the demand line (clipped at the sector's end); a sector miss first
    evicts the occupant, writing back only its dirty lines.  Writes
    tag-check and always insert.
    """

    def __init__(self, num_sets: int, sector_lines: int, footprint: int) -> None:
        self.num_sets = num_sets
        self.sector_lines = sector_lines
        self.footprint = footprint
        self._sets: Dict[int, SectorState] = {}

    def _where(self, line: int) -> Tuple[int, int, int]:
        sector, offset = divmod(line, self.sector_lines)
        return sector, offset, sector % self.num_sets

    def _install(
        self, index: int, sector: int, traffic: Traffic, tags: TagStats
    ) -> SectorState:
        """Sector miss: evict the occupant, writing back its dirty lines."""
        old = self._sets.get(index)
        dirty = old.dirty if old is not None else set()
        if dirty:
            tags.dirty_misses += 1
        else:
            tags.clean_misses += 1
        traffic.nvram_writes += len(dirty)
        state = self._sets[index] = SectorState(tag=sector)
        return state

    def _fill(self, state: SectorState, offset: int, traffic: Traffic) -> None:
        """Footprint fetch of the lines not yet valid."""
        window = set(range(offset, min(offset + self.footprint, self.sector_lines)))
        fresh = window - state.valid
        traffic.nvram_reads += len(fresh)
        traffic.dram_writes += len(fresh)
        state.valid |= window

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        for line in lines.tolist():
            sector, offset, index = self._where(line)
            state = self._sets.get(index)
            traffic.dram_reads += 1  # tag check
            if state is not None and state.tag == sector:
                if offset in state.valid:
                    tags.hits += 1
                    continue
                tags.clean_misses += 1  # line miss in a resident sector
            else:
                state = self._install(index, sector, traffic, tags)
            self._fill(state, offset, traffic)
        traffic.demand_reads = lines.size
        return traffic, tags

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        for line in lines.tolist():
            sector, offset, index = self._where(line)
            state = self._sets.get(index)
            traffic.dram_reads += 1  # tag check
            if state is not None and state.tag == sector:
                tags.hits += 1
            else:
                state = self._install(index, sector, traffic, tags)
            traffic.dram_writes += 1
            state.valid.add(offset)
            state.dirty.add(offset)
        traffic.demand_writes = lines.size
        return traffic, tags

    def contains(self, line: int) -> bool:
        sector, offset, index = self._where(line)
        state = self._sets.get(index)
        return state is not None and state.tag == sector and offset in state.valid


# -- set-associative LRU -----------------------------------------------------


class ScalarLRUCache:
    """Oracle for :class:`~repro.cache.alternatives.SetAssociativeCache`.

    The Figure-3 protocol (always insert, optional DDO) with LRU ways:
    every access, DDO writes included, makes its line the most recent,
    and a miss into a full set evicts the least recent line.
    """

    def __init__(self, num_sets: int, ways: int, *, ddo_enabled: bool = True) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.ddo_enabled = ddo_enabled
        self._sets: Dict[int, List[SetState]] = {}

    def bucket(self, index: int) -> List[SetState]:
        """Set ``index``'s resident lines, least recent first."""
        return self._sets.get(index, [])

    def _find(self, index: int, line: int) -> Optional[SetState]:
        for entry in self.bucket(index):
            if entry.tag == line:
                return entry
        return None

    def _touch(self, index: int, entry: SetState) -> None:
        bucket = self._sets[index]
        bucket.remove(entry)
        bucket.append(entry)

    def _install(
        self, index: int, entry: SetState, traffic: Traffic, tags: TagStats
    ) -> None:
        """Miss handler: evict the least recent line of a full set."""
        bucket = self._sets.setdefault(index, [])
        victim = bucket.pop(0) if len(bucket) >= self.ways else None
        if victim is not None and victim.dirty:
            tags.dirty_misses += 1
            traffic.nvram_writes += 1
        else:
            tags.clean_misses += 1
        bucket.append(entry)

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        for line in lines.tolist():
            index = line % self.num_sets
            traffic.dram_reads += 1  # tag check
            entry = self._find(index, line)
            if entry is not None:
                tags.hits += 1
                entry.known_resident = True
                self._touch(index, entry)
                continue
            traffic.nvram_reads += 1
            traffic.dram_writes += 1
            entry = SetState(tag=line, dirty=False, known_resident=True)
            self._install(index, entry, traffic, tags)
        traffic.demand_reads = lines.size
        return traffic, tags

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        lines = as_lines(lines)
        traffic, tags = Traffic(), TagStats()
        for line in lines.tolist():
            index = line % self.num_sets
            entry = self._find(index, line)
            if entry is not None and entry.known_resident and self.ddo_enabled:
                tags.ddo_writes += 1
                traffic.dram_writes += 1
                entry.dirty = True
                self._touch(index, entry)
                continue
            traffic.dram_reads += 1  # tag check
            if entry is not None:
                tags.hits += 1
                traffic.dram_writes += 1
                entry.dirty = True
                self._touch(index, entry)
                continue
            traffic.nvram_reads += 1
            traffic.dram_writes += 2
            entry = SetState(tag=line, dirty=True, known_resident=False)
            self._install(index, entry, traffic, tags)
        traffic.demand_writes = lines.size
        return traffic, tags

    def contains(self, line: int) -> bool:
        return self._find(line % self.num_sets, line) is not None
