"""Measurement utilities: counter sampling, traces, and report rendering.

The paper's figures are time-series of uncore counter deltas (bandwidth,
tag rates, MIPS).  :class:`CounterSampler` snapshots a counter bank the
way the paper's scripts sample the PMU; :class:`Trace` turns the
snapshots into the derived series; :mod:`repro.perf.report` renders
tables and textual figures for the experiment CLI.
"""

from repro.perf.sampler import CounterSampler
from repro.perf.segments import DuplicateProbe, SegmentedBatch, SplitBatch, segment
from repro.perf.trace import Trace, TracePoint
from repro.perf.report import render_table, render_series

__all__ = [
    "CounterSampler",
    "DuplicateProbe",
    "SegmentedBatch",
    "SplitBatch",
    "Trace",
    "TracePoint",
    "render_series",
    "render_table",
    "segment",
]
