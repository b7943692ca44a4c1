"""Property-based equivalence: vectorized engine vs scalar reference.

The vectorized :class:`DirectMappedCache` must be bit-for-bit equivalent
to the literal Figure-3 :class:`ReferenceCache` for any interleaving of
reads and writes, including batches with heavy set conflicts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import DirectMappedCache
from repro.cache.flow import ReferenceCache

# Tiny caches + addresses spanning several aliases force set conflicts.
NUM_SETS = st.sampled_from([1, 2, 7, 16])


def op_batches(num_sets):
    line = st.integers(min_value=0, max_value=num_sets * 4 - 1)
    batch = st.lists(line, min_size=0, max_size=12)
    op = st.tuples(st.sampled_from(["read", "write"]), batch)
    return st.lists(op, min_size=1, max_size=10)


@st.composite
def scenarios(draw):
    num_sets = draw(NUM_SETS)
    ops = draw(op_batches(num_sets))
    ddo = draw(st.booleans())
    insert = draw(st.booleans())
    return num_sets, ops, ddo, insert


def apply_ops(cache, ops):
    results = []
    for kind, batch in ops:
        lines = np.array(batch, dtype=np.int64)
        if kind == "read":
            results.append(cache.llc_read(lines))
        else:
            results.append(cache.llc_write(lines))
    return results


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_vectorized_matches_reference(scenario):
    num_sets, ops, ddo, insert = scenario
    vectorized = DirectMappedCache(
        num_sets * 64, ddo_enabled=ddo, insert_on_write_miss=insert
    )
    reference = ReferenceCache(
        num_sets, ddo_enabled=ddo, insert_on_write_miss=insert
    )
    for (vt, vg), (rt, rg) in zip(apply_ops(vectorized, ops), apply_ops(reference, ops)):
        assert vt == rt, f"traffic diverged: {vt} vs {rt}"
        assert vg == rg, f"tag stats diverged: {vg} vs {rg}"
    # Final cache state must agree line by line.
    probe = np.arange(num_sets * 4, dtype=np.int64)
    final = vectorized._tags
    for line in probe.tolist():
        assert bool(final[line % num_sets] == line) == reference.contains(line)
        assert bool(
            (final[line % num_sets] == line) and vectorized._dirty[line % num_sets]
        ) == reference.is_dirty(line)


@given(
    num_sets=NUM_SETS,
    batch=st.lists(st.integers(min_value=0, max_value=63), min_size=0, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_one_batch_equals_singleton_batches(num_sets, batch):
    """Processing one big batch must equal one access at a time."""
    lines = np.array(batch, dtype=np.int64)
    batched = DirectMappedCache(num_sets * 64)
    t_batched, g_batched = batched.llc_read(lines)

    serial = DirectMappedCache(num_sets * 64)
    from repro.perf.counters import TagStats, Traffic

    t_serial, g_serial = Traffic(), TagStats()
    for line in lines:
        t, g = serial.llc_read(np.array([line]))
        t_serial += t
        g_serial += g
    t_serial.demand_reads = t_batched.demand_reads  # demand counted per call
    assert t_batched == t_serial
    assert g_batched == g_serial


@given(
    num_sets=NUM_SETS,
    reads=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_conservation_of_fills(num_sets, reads):
    """Every NVRAM read must be matched by exactly one DRAM insert."""
    cache = DirectMappedCache(num_sets * 64)
    traffic, _ = cache.llc_read(np.array(reads, dtype=np.int64))
    assert traffic.nvram_reads == traffic.dram_writes


@given(
    num_sets=NUM_SETS,
    ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "write"]),
            st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=10),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=100, deadline=None)
def test_dirty_writebacks_never_exceed_dirty_insertions(num_sets, ops):
    """NVRAM write-backs can only flush lines that were dirtied."""
    cache = DirectMappedCache(num_sets * 64)
    total_writebacks = 0
    total_demand_writes = 0
    for kind, batch in ops:
        lines = np.array(batch, dtype=np.int64)
        if kind == "read":
            traffic, _ = cache.llc_read(lines)
        else:
            traffic, _ = cache.llc_write(lines)
            total_demand_writes += lines.size
        total_writebacks += traffic.nvram_writes
    assert total_writebacks <= total_demand_writes
