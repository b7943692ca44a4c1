"""Parallel execution: declarative sweeps over process pools.

The experiment layer declares each figure's grid as a
:class:`SweepSpec` and hands it to :func:`run_sweep`, which fans the
points across worker processes (or runs them serially for ``jobs=1``)
and returns results in deterministic grid order.  See
:mod:`repro.exec.sweep` for the design constraints.
:func:`repro.exec.forkcall.start` runs one call in a forked child
beside the caller's own work.
"""

from repro.exec.sweep import (
    SweepError,
    SweepSpec,
    fork_available,
    merge_worker_telemetry,
    run_sweep,
)

__all__ = [
    "SweepError",
    "SweepSpec",
    "fork_available",
    "merge_worker_telemetry",
    "run_sweep",
]
