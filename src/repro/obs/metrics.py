"""Metrics registry: counters, gauges and histograms.

The instruments mirror the Prometheus data model because that is the
lingua franca of production metrics, and because the paper's own
methodology is counter sampling (Section III-B) — a counter bank plus a
text exposition is exactly what a scaled-out deployment of this
simulator would scrape.

* :class:`Counter` — monotonically increasing total.
* :class:`Gauge` — a value that can move both ways (hit rate, occupancy).
* :class:`Histogram` — fixed cumulative bucket boundaries (``le``
  semantics), plus sum and count, so per-epoch distributions
  (amplification, batch sizes) survive aggregation.

A registry renders as Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus`) or as plain JSON
(:meth:`MetricsRegistry.to_jsonable`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.units import CACHE_LINE, KiB, MiB

#: Default bucket boundaries for access-amplification histograms
#: (Table I tops out at 5 accesses per demand access).
AMPLIFICATION_BUCKETS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
#: Default bucket boundaries for batch/epoch size histograms (lines).
SIZE_BUCKETS = tuple(
    float(bound)
    for bound in (CACHE_LINE, KiB, 16 * KiB, 64 * KiB, 256 * KiB, MiB)
)
#: Default bucket boundaries for rate-like [0, 1] metrics (hit rate).
RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
#: Default bucket boundaries for wall-clock latencies in seconds
#: (service job execution: sub-10ms cache hits up to minutes-long
#: full-fidelity simulations).
LATENCY_BUCKETS = (0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0, 120.0)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Point-in-time histogram state: cumulative bucket counts."""

    name: str
    help: str
    #: (upper bound, cumulative count) pairs; the implicit +Inf bucket
    #: equals ``count``.
    buckets: Tuple[Tuple[float, int], ...]
    sum: float
    count: int

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time state of every instrument in a registry."""

    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Tuple[HistogramSnapshot, ...]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """A value that can be set to anything."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("name", "help", "bounds", "_counts", "sum", "count")

    def __init__(self, name: str, bounds: Sequence[float], help: str = "") -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {name} bounds must be strictly increasing: {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self._counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[index] += 1
                return
        # Falls through into the implicit +Inf bucket (count only).

    def snapshot(self) -> HistogramSnapshot:
        cumulative = []
        running = 0
        for bound, bucket in zip(self.bounds, self._counts):
            running += bucket
            cumulative.append((bound, running))
        return HistogramSnapshot(
            name=self.name,
            help=self.help,
            buckets=tuple(cumulative),
            sum=self.sum,
            count=self.count,
        )

    def merge_snapshot(self, snapshot: HistogramSnapshot) -> None:
        """Fold another registry's snapshot of this histogram into ours.

        The snapshot's cumulative buckets are differenced back into
        per-bucket counts; bounds must match exactly.
        """
        bounds = tuple(le for le, _ in snapshot.buckets)
        if bounds != self.bounds:
            raise ConfigurationError(
                f"histogram {self.name} bounds {self.bounds} do not match "
                f"snapshot bounds {bounds}"
            )
        previous = 0
        for index, (_, cumulative) in enumerate(snapshot.buckets):
            self._counts[index] += cumulative - previous
            previous = cumulative
        self.sum += snapshot.sum
        self.count += snapshot.count


def snapshot_to_jsonable(snapshot: MetricsSnapshot) -> Dict[str, Any]:
    return {
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "histograms": [
            {
                "name": h.name,
                "buckets": [[le, n] for le, n in h.buckets],
                "sum": h.sum,
                "count": h.count,
            }
            for h in snapshot.histograms
        ],
    }


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(snapshot.counters[name])}")
    for name in sorted(snapshot.gauges):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(snapshot.gauges[name])}")
    for hist in sorted(snapshot.histograms, key=lambda h: h.name):
        lines.append(f"# TYPE {hist.name} histogram")
        for bound, cumulative in hist.buckets:
            lines.append(
                f'{hist.name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{hist.name}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{hist.name}_sum {_format_value(hist.sum)}")
        lines.append(f"{hist.name}_count {hist.count}")
    return "\n".join(lines) + "\n"


class MetricsRegistry:
    """Get-or-create instrument store."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: type, factory) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, bounds: Sequence[float] = SIZE_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds, help))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> MetricsSnapshot:
        counters = {}
        gauges = {}
        histograms = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms.append(instrument.snapshot())
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=tuple(histograms)
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a foreign registry's snapshot into this registry.

        Counters accumulate, gauges take the snapshot's (later) value,
        histogram buckets add.  This is how a sweep worker's metrics
        rejoin the parent process's registry — merging snapshots from
        workers in grid order keeps the result deterministic.
        """
        for name, value in snapshot.counters.items():
            if value:
                self.counter(name).inc(value)
            else:
                self.counter(name)
        for name, value in snapshot.gauges.items():
            self.gauge(name).set(value)
        for hist in snapshot.histograms:
            bounds = tuple(le for le, _ in hist.buckets)
            self.histogram(hist.name, bounds, hist.help).merge_snapshot(hist)

    def to_prometheus(self) -> str:
        return render_prometheus(self.snapshot())

    def to_jsonable(self) -> Dict[str, Any]:
        """Hook for :func:`repro.perf.export.to_jsonable`."""
        return snapshot_to_jsonable(self.snapshot())
