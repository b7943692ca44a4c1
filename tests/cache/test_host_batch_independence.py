"""Host batching is not part of the model: a batch split anywhere computes the same.

A host batch is how many lines the simulator hands a cache model in one
call, a host-side knob (``repro.memsys.backends.BATCH_LINES``), while
the modelled controller serves requests one at a time.  So for every
cache model, a batch of one request kind issued whole and the same
batch cut at random points and issued piece by piece must charge the
same ``Traffic`` and ``TagStats`` and leave the same cache state: tags,
dirty bits and known-resident bits (tags, valid and dirty masks for the
sector cache).  LRU stamps and the clock are not compared: the split
changes their values but not their order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import DirectMappedCache
from repro.perf.counters import TagStats, Traffic
from repro.traces.replay import MODEL_FACTORIES
from repro.units import KiB

CAPACITY = 8 * KiB  # 128 lines: four 32-line sectors, sixteen 8-way sets
LINE_SPAN = 512  # four aliases per direct-mapped set

#: The cache state a split must leave unchanged, where a model has it.
STATE = ("_tags", "_valid", "_dirty", "_known_resident")

FACTORIES = {**MODEL_FACTORIES, "no_ddo": lambda cap: DirectMappedCache(cap, ddo_enabled=False)}

MODELS = [
    pytest.param(
        name,
        marks=pytest.mark.xfail(
            strict=True,
            reason="prefetches once per llc_read call (see the FOUND line on "
            "NextLinePrefetchCache in CHANGES.md)",
        ),
    )
    if name == "prefetch"
    else name
    for name in sorted(FACTORIES)
]

batches = st.lists(st.integers(0, LINE_SPAN - 1), min_size=1, max_size=160)
kinds = st.sampled_from(["read", "write"])


def issue(cache, kind, lines):
    """Charge ``lines`` to ``cache`` as one call; (Traffic, TagStats)."""
    lines = np.asarray(lines, dtype=np.int64)
    return cache.llc_read(lines) if kind == "read" else cache.llc_write(lines)


def state(cache):
    return {attr: getattr(cache, attr).copy() for attr in STATE if hasattr(cache, attr)}


@pytest.mark.parametrize("model", MODELS)
@settings(max_examples=120, deadline=None)
@given(warmup=st.lists(st.tuples(kinds, batches), max_size=3), kind=kinds, data=st.data())
def test_splitting_a_batch_changes_nothing(model, warmup, kind, data):
    whole, split = FACTORIES[model](CAPACITY), FACTORIES[model](CAPACITY)
    for warm_kind, lines in warmup:  # the same history, so a nontrivial start
        issue(whole, warm_kind, lines)
        issue(split, warm_kind, lines)
    batch = data.draw(batches, label="batch")
    cuts = data.draw(
        st.lists(st.integers(1, len(batch)), max_size=6).map(sorted), label="cuts"
    )

    expected = issue(whole, kind, batch)
    traffic, tags = Traffic(), TagStats()
    for piece in np.split(np.asarray(batch, dtype=np.int64), cuts):
        if piece.size:
            piece_traffic, piece_tags = issue(split, kind, piece)
            traffic += piece_traffic
            tags += piece_tags

    assert (traffic, tags) == expected
    final, final_split = state(whole), state(split)
    assert final.keys() == final_split.keys() and final
    for attr in final:
        assert np.array_equal(final[attr], final_split[attr]), attr
