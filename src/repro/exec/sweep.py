"""Parallel sweep engine: declarative grids fanned across processes.

Every figure of the paper is a *sweep* — a grid of independent
configuration points (pattern x granularity x thread count, cache
variant, graph x kernel) whose results are merged into one table.  A
:class:`SweepSpec` declares that grid as data; :func:`run_sweep` fans
the points across a ``ProcessPoolExecutor`` and returns their results
in deterministic grid order regardless of completion order.

Design constraints:

* **Serial fallback.**  ``jobs=1`` (the default) — or any platform
  without the ``fork`` start method — runs every point in-process, in
  grid order, with no pool, no pickling, and telemetry flowing into the
  ambient handle exactly as before the engine existed.  Parallel and
  serial runs must produce identical results.
* **Picklable points.**  A spec's ``fn`` must be a module-level
  callable and its per-point params plain data (strings, numbers,
  enums): workers receive ``(spec, index)`` and look the point up.
* **Telemetry round-trip.**  When the parent's telemetry is enabled,
  each worker runs its point under a fresh :func:`repro.obs.session`
  and ships back its span records and a metrics snapshot.  The parent
  rebases worker spans onto its own tracer (``perf_counter`` is a
  system-wide clock, so origins are comparable) and folds the metrics
  into its registry — ``--trace`` / ``--metrics`` capture the whole
  run, parallel or not.  Payloads are merged in grid order after all
  points complete, so merged metrics are deterministic too.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs.metrics import MetricsSnapshot
from repro.obs.spans import SpanRecord


class SweepError(RuntimeError):
    """A sweep point failed (worker crash or an exception in ``fn``)."""


@dataclass(frozen=True)
class SweepSpec:
    """A named grid of independent configuration points.

    ``fn`` is invoked once per point as ``fn(**common, **point)``; it
    must be a module-level callable so worker processes can unpickle it
    by reference.
    """

    name: str
    fn: Callable[..., Any]
    points: Tuple[Dict[str, Any], ...]
    common: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_points(
        cls,
        name: str,
        fn: Callable[..., Any],
        points: Sequence[Mapping[str, Any]],
        common: Optional[Mapping[str, Any]] = None,
    ) -> "SweepSpec":
        """A spec from an explicit point list (kept in the given order)."""
        return cls(
            name=name,
            fn=fn,
            points=tuple(dict(point) for point in points),
            common=dict(common or {}),
        )

    @classmethod
    def grid(
        cls,
        name: str,
        fn: Callable[..., Any],
        axes: Mapping[str, Sequence[Any]],
        common: Optional[Mapping[str, Any]] = None,
    ) -> "SweepSpec":
        """The cartesian product of ``axes``, last axis varying fastest."""
        names = list(axes)
        points = [
            dict(zip(names, values))
            for values in itertools.product(*(axes[n] for n in names))
        ]
        return cls.from_points(name, fn, points, common)

    def __len__(self) -> int:
        return len(self.points)

    def kwargs(self, index: int) -> Dict[str, Any]:
        """The full keyword arguments for point ``index``."""
        return {**self.common, **self.points[index]}


@dataclass
class _WorkerTelemetry:
    """What a worker ships home: its spans and a metrics snapshot."""

    records: List[SpanRecord]
    origin_abs: float
    metrics: MetricsSnapshot


def _call_point(spec: SweepSpec, index: int) -> Any:
    """Run one point, wrapped in a sweep span when telemetry is live."""
    tele = obs.get()
    if not tele.enabled:
        return spec.fn(**spec.kwargs(index))
    annotations = {
        key: value
        for key, value in spec.points[index].items()
        if isinstance(value, (str, int, float, bool))
    }
    with tele.span(f"sweep:{spec.name}", cat="sweep", point=index, **annotations):
        return spec.fn(**spec.kwargs(index))


def _worker_run(
    spec: SweepSpec, index: int, capture_telemetry: bool
) -> Tuple[int, Any, Optional[_WorkerTelemetry]]:
    """Pool entry point: run one point in a worker process."""
    if not capture_telemetry:
        return index, _call_point(spec, index), None
    with obs.session() as tele:
        value = _call_point(spec, index)
        payload = _WorkerTelemetry(
            records=list(tele.tracer.records),
            origin_abs=tele.tracer.origin_abs,
            metrics=tele.metrics.snapshot(),
        )
    return index, value, payload


def merge_worker_telemetry(
    telemetry: "obs.Telemetry", payload: _WorkerTelemetry
) -> None:
    """Fold one worker's telemetry payload into the parent handle."""
    tracer = telemetry.tracer
    if tracer is not None and payload.records:
        tracer.absorb(
            payload.records,
            wall_offset=payload.origin_abs - tracer.origin_abs,
            depth_offset=tracer.depth,
        )
    if telemetry.metrics is not None and payload.metrics is not None:
        telemetry.metrics.merge_snapshot(payload.metrics)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_sweep(spec: SweepSpec, jobs: int = 1) -> List[Any]:
    """Run every point of ``spec``; results come back in grid order.

    ``jobs=1`` — or any platform without ``fork`` — runs serially
    in-process.  ``jobs>1`` fans points across a process pool of at
    most ``min(jobs, len(spec))`` workers.  A failing point raises
    :class:`SweepError` naming the point and its parameters.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    total = len(spec)
    if total == 0:
        return []

    jobs = min(jobs, total)
    if jobs == 1 or not fork_available():
        return [_run_serial_point(spec, index) for index in range(total)]

    tele = obs.get()
    capture = bool(tele.enabled)
    results: List[Any] = [None] * total
    payloads: List[Optional[_WorkerTelemetry]] = [None] * total
    # fork: workers inherit imported modules and warm lru_caches
    # (platforms, graphs, access patterns) copy-on-write, so per-point
    # startup cost stays near zero.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        futures = {
            pool.submit(_worker_run, spec, index, capture): index
            for index in range(total)
        }
        try:
            for future in as_completed(futures):
                submitted = futures[future]
                try:
                    index, value, payload = future.result()
                # Worker barrier: any point failure, whatever its type,
                # must surface as a SweepError naming the point.
                except Exception as error:  # repro-lint: disable=EXC001
                    raise SweepError(
                        f"sweep {spec.name!r} point {submitted} "
                        f"({spec.points[submitted]}) failed: {error!r}"
                    ) from error
                results[index] = value
                payloads[index] = payload
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    if capture:
        for payload in payloads:
            if payload is not None:
                merge_worker_telemetry(tele, payload)
    return results


def _run_serial_point(spec: SweepSpec, index: int) -> Any:
    try:
        return _call_point(spec, index)
    except SweepError:
        raise
    # Serial worker barrier: mirror the pool path so jobs=1 fails the
    # same way, with the failing point named.
    except Exception as error:  # repro-lint: disable=EXC001
        raise SweepError(
            f"sweep {spec.name!r} point {index} "
            f"({spec.points[index]}) failed: {error!r}"
        ) from error
