"""Tests for traffic records, tag stats, and the uncore counter bank."""

from dataclasses import fields

import pytest

from repro.perf.counters import (
    AccessContext,
    Pattern,
    TagStats,
    Traffic,
    UncoreCounters,
)


class TestTraffic:
    def test_addition(self):
        a = Traffic(dram_reads=1, nvram_writes=2, demand_reads=1)
        b = Traffic(dram_reads=3, dram_writes=1, demand_writes=2)
        c = a + b
        assert c.dram_reads == 4
        assert c.dram_writes == 1
        assert c.nvram_writes == 2
        assert c.demand_reads == 1
        assert c.demand_writes == 2

    def test_inplace_addition(self):
        a = Traffic(dram_reads=1)
        a += Traffic(dram_reads=2, nvram_reads=5)
        assert a.dram_reads == 3
        assert a.nvram_reads == 5

    def test_byte_properties_use_64b_lines(self):
        t = Traffic(dram_reads=10)
        assert t.dram_read_bytes == 640

    def test_amplification_table_i_read_miss_dirty(self):
        # Table I: read dirty miss = 4 accesses per demand access.
        t = Traffic(
            dram_reads=1, dram_writes=1, nvram_reads=1, nvram_writes=1, demand_reads=1
        )
        assert t.amplification == 4.0

    def test_amplification_zero_demand(self):
        assert Traffic(dram_reads=5).amplification == 0.0

    def test_totals(self):
        t = Traffic(dram_reads=1, dram_writes=2, nvram_reads=3, nvram_writes=4)
        assert t.total_accesses == 10
        assert t.total_bytes == 640


@pytest.mark.parametrize("cls", [Traffic, TagStats])
def test_arithmetic_covers_every_field(cls):
    """+, +=, sub, add and copy carry every dataclass field
    to its own slot, so a field added later cannot be dropped silently
    by the unrolled arithmetic."""
    names = [f.name for f in fields(cls)]
    a = cls(**{name: 10**i for i, name in enumerate(names, 1)})  # distinct values
    b = cls(**{name: i for i, name in enumerate(names, 1)})

    def values(counter):
        return {name: getattr(counter, name) for name in names}

    def each(op):
        return {name: op(getattr(a, name), getattr(b, name)) for name in names}

    assert values(a + b) == each(lambda x, y: x + y)
    assert values(a.sub(b)) == each(lambda x, y: x - y)
    copy = a.copy()
    assert copy is not a and values(copy) == values(a)
    copy += b
    assert values(copy) == each(lambda x, y: x + y)
    copy = a.copy()
    copy.add(b, 3)
    assert values(copy) == each(lambda x, y: x + 3 * y)
    assert values(a) == {name: 10**i for i, name in enumerate(names, 1)}  # untouched


class TestTagStats:
    def test_hit_rate(self):
        s = TagStats(hits=3, clean_misses=1, dirty_misses=0)
        assert s.hit_rate == pytest.approx(0.75)

    def test_hit_rate_no_checks(self):
        assert TagStats().hit_rate == 0.0

    def test_ddo_not_counted_as_check(self):
        s = TagStats(hits=1, ddo_writes=10)
        assert s.checks == 1
        assert s.hit_rate == 1.0

    def test_misses(self):
        assert TagStats(clean_misses=2, dirty_misses=3).misses == 5

    def test_addition(self):
        s = TagStats(hits=1) + TagStats(dirty_misses=2, ddo_writes=1)
        assert (s.hits, s.dirty_misses, s.ddo_writes) == (1, 2, 1)


class TestAccessContext:
    def test_defaults(self):
        ctx = AccessContext()
        assert ctx.threads == 1
        assert ctx.pattern is Pattern.SEQUENTIAL

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_bad_threads(self, bad):
        with pytest.raises(ValueError):
            AccessContext(threads=bad)

    def test_rejects_sub_line_granularity(self):
        with pytest.raises(ValueError):
            AccessContext(granularity=32)

    def test_rejects_zero_sockets(self):
        with pytest.raises(ValueError):
            AccessContext(sockets=0)


class TestUncoreCounters:
    def test_snapshot_delta(self):
        c = UncoreCounters()
        c.record_traffic(Traffic(dram_reads=5, demand_reads=5))
        c.advance(1.0)
        before = c.snapshot()
        c.record_traffic(Traffic(dram_reads=3, nvram_reads=2, demand_reads=3))
        c.record_tags(TagStats(hits=1, clean_misses=2))
        c.advance(0.5)
        c.retire(1000)
        delta = c.snapshot().delta(before)
        assert delta.time == pytest.approx(0.5)
        assert delta.traffic.dram_reads == 3
        assert delta.traffic.nvram_reads == 2
        assert delta.tags.hits == 1
        assert delta.tags.clean_misses == 2
        assert delta.instructions == 1000

    def test_snapshot_is_immutable_copy(self):
        c = UncoreCounters()
        snap = c.snapshot()
        c.record_traffic(Traffic(dram_reads=1))
        assert snap.traffic.dram_reads == 0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            UncoreCounters().advance(-1)

    def test_retire_rejects_negative(self):
        with pytest.raises(ValueError):
            UncoreCounters().retire(-1)

