"""Fixtures shared across the test packages."""

from collections import Counter

import pytest

from repro.perf import segments


@pytest.fixture
def grouping_sorts(monkeypatch):
    """Counts of the grouping sorts :mod:`repro.perf.segments` takes, by
    function name (``_packed_sort``, ``_stable_sort``)."""
    calls = Counter()
    for name in ("_packed_sort", "_stable_sort"):
        real = getattr(segments, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(segments, name, spy)
    return calls
