"""Property-based equivalence for the set-associative ablation cache.

A deliberately simple scalar LRU model serves as ground truth for the
vectorized :class:`SetAssociativeCache`, mirroring the DirectMappedCache
vs ReferenceCache pairing.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SetAssociativeCache
from repro.perf.counters import TagStats, Traffic


class _ScalarLRUCache:
    """One-access-at-a-time set-associative LRU with the IMC protocol."""

    def __init__(self, num_sets: int, ways: int, ddo_enabled: bool = True) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.ddo_enabled = ddo_enabled
        # Each set: list of [tag, dirty, known_resident], most recent last.
        self._sets: Dict[int, List[List]] = {}

    def _find(self, index: int, line: int) -> Optional[List]:
        for entry in self._sets.get(index, []):
            if entry[0] == line:
                return entry
        return None

    def _touch(self, index: int, entry: List) -> None:
        bucket = self._sets[index]
        bucket.remove(entry)
        bucket.append(entry)

    def _install(self, index: int, entry: List, traffic: Traffic, tags: TagStats) -> None:
        bucket = self._sets.setdefault(index, [])
        victim_dirty = False
        if len(bucket) >= self.ways:
            victim = bucket.pop(0)  # least recent
            victim_dirty = victim[1]
        if victim_dirty:
            tags.dirty_misses += 1
            traffic.nvram_writes += 1
        else:
            tags.clean_misses += 1
        bucket.append(entry)

    def llc_read(self, lines) -> Tuple[Traffic, TagStats]:
        traffic, tags = Traffic(), TagStats()
        traffic.demand_reads = len(lines)
        for line in lines:
            index = line % self.num_sets
            traffic.dram_reads += 1
            entry = self._find(index, line)
            if entry is not None:
                tags.hits += 1
                entry[2] = True
                self._touch(index, entry)
                continue
            traffic.nvram_reads += 1
            traffic.dram_writes += 1
            self._install(index, [line, False, True], traffic, tags)
        return traffic, tags

    def llc_write(self, lines) -> Tuple[Traffic, TagStats]:
        traffic, tags = Traffic(), TagStats()
        traffic.demand_writes = len(lines)
        for line in lines:
            index = line % self.num_sets
            entry = self._find(index, line)
            if entry is not None and entry[2] and self.ddo_enabled:
                tags.ddo_writes += 1
                traffic.dram_writes += 1
                entry[1] = True
                self._touch(index, entry)
                continue
            traffic.dram_reads += 1
            if entry is not None:
                tags.hits += 1
                traffic.dram_writes += 1
                entry[1] = True
                self._touch(index, entry)
                continue
            traffic.nvram_reads += 1
            traffic.dram_writes += 2
            self._install(index, [line, True, False], traffic, tags)
        return traffic, tags


@st.composite
def scenarios(draw):
    num_sets = draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4]))
    line = st.integers(min_value=0, max_value=num_sets * ways * 3 - 1)
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write"]),
                st.lists(line, min_size=0, max_size=10),
            ),
            min_size=1,
            max_size=10,
        )
    )
    ddo = draw(st.booleans())
    return num_sets, ways, ops, ddo


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_vectorized_setassoc_matches_scalar_lru(scenario):
    num_sets, ways, ops, ddo = scenario
    vectorized = SetAssociativeCache(num_sets * ways * 64, ways=ways, ddo_enabled=ddo)
    scalar = _ScalarLRUCache(num_sets, ways, ddo_enabled=ddo)
    for kind, batch in ops:
        lines = np.array(batch, dtype=np.int64)
        if kind == "read":
            vt, vg = vectorized.llc_read(lines)
            st_, sg = scalar.llc_read(batch)
        else:
            vt, vg = vectorized.llc_write(lines)
            st_, sg = scalar.llc_write(batch)
        assert vt == st_, f"traffic diverged on {kind} {batch}: {vt} vs {st_}"
        assert vg == sg, f"tags diverged on {kind} {batch}: {vg} vs {sg}"
    # Residency agrees line by line.
    probe = np.arange(num_sets * ways * 3, dtype=np.int64)
    vec_contains = vectorized.contains(probe)
    for line in probe.tolist():
        expected = scalar._find(line % num_sets, line) is not None
        assert bool(vec_contains[line]) == expected
