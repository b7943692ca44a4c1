"""Tests for the maximum-length LFSR index generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.lfsr import (
    _PRIMITIVE_TRINOMIALS,
    lfsr_sequence,
    max_length_lfsr_states,
)


class TestMaxLengthProperty:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 9, 10, 11, 15, 17, 18, 20, 21])
    def test_orbit_visits_every_nonzero_state_once(self, width):
        states = max_length_lfsr_states(width)
        period = (1 << width) - 1
        assert states.size == period
        assert states.min() == 1
        assert states.max() == period
        assert np.unique(states).size == period

    def test_orbit_is_deterministic(self):
        a = max_length_lfsr_states(10)
        b = max_length_lfsr_states(10)
        assert np.array_equal(a, b)

    def test_orbit_is_not_sorted(self):
        # Pseudo-random order, not a counter.
        states = max_length_lfsr_states(10)
        assert not np.array_equal(states, np.sort(states))

    def test_rejects_unknown_width(self):
        with pytest.raises(ValueError):
            max_length_lfsr_states(8)  # no trinomial registered

    def test_rejects_huge_width(self):
        with pytest.raises(ValueError):
            max_length_lfsr_states(33)


class TestLfsrSequence:
    @given(n=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_exactly_once_property(self, n):
        # Section III-B: "each address is touched exactly once (no repeats)".
        seq = lfsr_sequence(n)
        assert seq.size == n
        assert np.array_equal(np.sort(seq), np.arange(n))

    def test_empty(self):
        assert lfsr_sequence(0).size == 0

    def test_single(self):
        assert lfsr_sequence(1).tolist() == [0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lfsr_sequence(-1)

    def test_non_power_of_two_sizes(self):
        for n in (3, 100, 1000, 12345):
            seq = lfsr_sequence(n)
            assert np.array_equal(np.sort(seq), np.arange(n))

    def test_looks_shuffled(self):
        seq = lfsr_sequence(10_000)
        # Mean absolute jump for a random permutation is ~n/3; for a
        # sequential walk it is 1.
        jumps = np.abs(np.diff(seq))
        assert jumps.mean() > 1000


class TestTrinomialTable:
    def test_all_registered_widths_produce_m_sequences(self):
        for width in _PRIMITIVE_TRINOMIALS:
            if width > 20:
                continue  # 21 has its own case above; wider orbits cost seconds each
            states = max_length_lfsr_states(width)
            assert np.unique(states).size == (1 << width) - 1
