"""Observability: span tracing, metrics, and structured logging.

The paper's methodology is *measurement* — sampling uncore counters and
differencing snapshots (Section III-B).  This package generalizes that
into a first-class telemetry layer for the whole simulator:

* **Spans** (:mod:`repro.obs.spans`): nested, timed intervals carrying
  both host wall-clock and virtual simulator time, exportable as Chrome
  trace-event JSON (open in Perfetto / ``chrome://tracing``) or JSONL.
* **Metrics** (:mod:`repro.obs.metrics`): counters, gauges, and
  fixed-bucket histograms, rendered as Prometheus text exposition or
  JSON.
* **The handle** (:mod:`repro.obs.telemetry`): a process-wide
  :class:`Telemetry` object behind :func:`get`.  Disabled — the default
  — it is a null object whose guard costs one attribute lookup, so the
  hot paths stay hot (see ``benchmarks/test_obs_overhead.py``).
* **Logging** (:mod:`repro.obs.log`): one configurator for the
  ``repro.*`` logger hierarchy, wired to the CLI's ``--log-level``.

Hot-path idiom::

    from repro import obs

    tele = obs.get()
    if tele.enabled:
        tele.counter("repro_dram_reads_total").inc(traffic.dram_reads)

Scoped use (tests, experiments)::

    with obs.session() as tele:
        run_workload()
        tele.tracer.write_chrome("out.trace.json")
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    AMPLIFICATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    RATIO_BUCKETS,
    SIZE_BUCKETS,
    render_prometheus,
)
from repro.obs.spans import Span, SpanRecord, SpanTracer
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    disable,
    enable,
    get,
    session,
    set_telemetry,
)

__all__ = [
    "AMPLIFICATION_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RATIO_BUCKETS",
    "SIZE_BUCKETS",
    "Span",
    "SpanRecord",
    "SpanTracer",
    "Telemetry",
    "configure_logging",
    "disable",
    "enable",
    "get",
    "get_logger",
    "render_prometheus",
    "session",
    "set_telemetry",
]
