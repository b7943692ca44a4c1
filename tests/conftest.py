"""Fixtures shared across the test packages."""

import os
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


@pytest.fixture
def two_cpus(monkeypatch):
    """Make :func:`repro.exec.forkcall.start` see two usable CPUs, so that
    it forks on any host that has ``os.fork``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
