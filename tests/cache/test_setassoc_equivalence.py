"""Property-based equivalence for the set-associative ablation cache.

The scalar LRU oracle, :class:`~repro.cache.flow.ScalarLRUCache`, serves
as ground truth for the vectorized :class:`SetAssociativeCache`,
mirroring the DirectMappedCache vs ReferenceCache pairing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SetAssociativeCache
from repro.cache.flow import ScalarLRUCache


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
    scalar = ScalarLRUCache(num_sets, ways, ddo_enabled=ddo)
    for kind, batch in ops:
        lines = np.array(batch, dtype=np.int64)
        if kind == "read":
            vt, vg = vectorized.llc_read(lines)
            st_, sg = scalar.llc_read(lines)
        else:
            vt, vg = vectorized.llc_write(lines)
            st_, sg = scalar.llc_write(lines)
        assert vt == st_, f"traffic diverged on {kind} {batch}: {vt} vs {st_}"
        assert vg == sg, f"tags diverged on {kind} {batch}: {vg} vs {sg}"
    # Residency agrees line by line.
    probe = np.arange(num_sets * ways * 3, dtype=np.int64)
    vec_contains = vectorized.contains(probe)
    for line in probe.tolist():
        assert bool(vec_contains[line]) == scalar.contains(line)
