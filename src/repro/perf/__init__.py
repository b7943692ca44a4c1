"""Measurement utilities: counter sampling, traces, and report rendering.

The paper's figures are time-series of uncore counter deltas (bandwidth,
tag rates, MIPS).  :class:`~repro.perf.sampler.CounterSampler` snapshots
a counter bank the way the paper's scripts sample the PMU;
:class:`~repro.perf.trace.Trace` turns the snapshots into the derived
series; :mod:`repro.perf.report` renders tables and textual figures for
the experiment CLI.  Callers import those from their modules.  The
package re-exports only the batch segmentation every cache model runs.
"""

from repro.perf.segments import DuplicateProbe, SegmentedBatch, SplitBatch, segment

__all__ = [
    "DuplicateProbe",
    "SegmentedBatch",
    "SplitBatch",
    "segment",
]
