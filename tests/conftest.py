"""Fixtures shared across the test packages."""

import os
from collections import Counter

import pytest

from repro.perf import segments

#: Modules that run whole quick experiments or start a service, the
#: slowest in ``pytest --durations``.  They carry the ``integration``
#: marker, so CI runs ``-m "not integration"`` first and then
#: ``-m integration``; a run without ``-m`` runs both.
INTEGRATION_MODULES = frozenset(
    {
        "tests/experiments/test_autotm_ladder.py",
        "tests/experiments/test_autotm_plans.py",
        "tests/experiments/test_experiment_claims.py",
        "tests/experiments/test_kvtrace_cells.py",
        "tests/experiments/test_parallel.py",
        "tests/service/test_serve_smoke.py",
        "tests/service/test_worker_faults.py",
        "tests/test_startup.py",
        "tests/traces/test_golden.py",
    }
)


@pytest.hookimpl(tryfirst=True)  # before ``-m`` deselects by marker
def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.partition("::")[0] in INTEGRATION_MODULES:
            item.add_marker(pytest.mark.integration)


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
