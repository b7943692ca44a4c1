"""Common cache-model interface.

The IMC sees exactly two request kinds from the LLC (Section IV-A):

* **LLC read** — a load or RFO miss at the LLC requesting a line.
* **LLC write** — a dirty-line eviction from the LLC or a nontemporal
  store writing a line back.

A cache model consumes batches of line addresses for each kind and
returns the device traffic and tag events they generate.
"""

from __future__ import annotations

import weakref
from dataclasses import fields
from typing import Dict, Protocol, Tuple

import numpy as np

from repro import obs
from repro.perf.counters import TagStats, Traffic

__all__ = ["CacheModel", "record_cache_metrics"]

#: Metric-name rows per cache kind, formatted once per process instead
#: of once per batch: (attribute, counter name, counter help) plus the
#: write-back histogram's (name, help).
_METRIC_SPECS: Dict[str, tuple] = {}

#: Resolved instrument handles, per live telemetry handle per cache kind.
#: Weak keys so dropping a telemetry session releases its instruments.
_HANDLES: "weakref.WeakKeyDictionary[object, Dict[str, tuple]]" = (
    weakref.WeakKeyDictionary()
)


def _metric_specs(cache_kind: str) -> tuple:
    specs = _METRIC_SPECS.get(cache_kind)
    if specs is None:
        counters = tuple(
            (
                f.name,
                f"repro_cache_{cache_kind}_tag_{f.name}_total",
                f"{cache_kind} cache tag {f.name.replace('_', ' ')}",
            )
            for f in fields(TagStats)
        )
        histogram = (
            f"repro_cache_{cache_kind}_dirty_writeback_lines",
            f"{cache_kind} cache dirty lines written back per batch",
        )
        specs = _METRIC_SPECS[cache_kind] = (counters, histogram)
    return specs


def record_cache_metrics(cache_kind: str, traffic: Traffic, tags: TagStats) -> None:
    """Charge one batch's tag outcomes and evictions to the telemetry layer.

    Shared by the cache models so every design reports the same metric
    family: per-outcome tag counters plus a histogram of dirty lines
    written back to NVRAM per batch (the eviction burst distribution).
    No-op (one attribute lookup) when telemetry is disabled; enabled, the
    instrument handles are resolved once per telemetry session rather
    than rebuilt from f-strings on every batch.
    """
    tele = obs.get()
    if not tele.enabled:
        return
    per_tele = _HANDLES.get(tele)
    if per_tele is None:
        per_tele = {}
        _HANDLES[tele] = per_tele
    handles = per_tele.get(cache_kind)
    if handles is None:
        counter_specs, (hist_name, hist_help) = _metric_specs(cache_kind)
        handles = per_tele[cache_kind] = (
            tuple(
                (attr, tele.counter(metric, help_text))
                for attr, metric, help_text in counter_specs
            ),
            tele.histogram(hist_name, obs.SIZE_BUCKETS, hist_help),
        )
    tag_counters, writeback_histogram = handles
    for attr, counter in tag_counters:
        value = getattr(tags, attr)
        if value:
            counter.inc(value)
    writeback_histogram.observe(traffic.nvram_writes)


class CacheModel(Protocol):
    """Anything that can stand in for the 2LM DRAM cache."""

    num_sets: int

    def llc_read(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        """Process a batch of LLC read requests, in order."""
        ...

    def llc_write(self, lines: np.ndarray) -> Tuple[Traffic, TagStats]:
        """Process a batch of LLC write-back requests, in order."""
        ...

    def reset(self) -> None:
        """Invalidate all cached state."""
        ...
