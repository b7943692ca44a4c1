"""Retry policy and the :class:`SimulationService` facade.

The service ties the pieces together into one request lifecycle::

    submit -> store lookup -> (hit: serve cached)
                       \\-> (miss: queue -> worker -> store -> done)

Every stage is observable through the shared telemetry registry
(queue depth gauge, cache hit/miss counters, job latency histogram) —
the same registry ``GET /metrics`` renders, so the serving layer's
health is scraped exactly like the simulator's own counters.
"""

from __future__ import annotations

import inspect
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro import obs
from repro.autotm.ilp import release_threads
from repro.errors import InvariantError, JobRejectedError
from repro.experiments.base import ExperimentResult
from repro.service.catalog import Catalog
from repro.service.queue import Job, JobQueue, JobRequest
from repro.service.store import RequestSpec, ResultStore, StoredResult
from repro.service.versioning import code_version_salt, git_sha


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap.

    ``delay(attempt)`` is the wait before retry number ``attempt``
    (1-based count of *completed* attempts): base, base*factor,
    base*factor^2, ... bounded by ``backoff_max``.
    """

    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0

    def delay(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


def _check_knobs(priority: Any, timeout: Any, max_retries: Any) -> None:
    """Reject scheduling knobs a worker could not act on.

    They are checked at admission: a ``timeout`` of the wrong type fails
    only once a worker has forked the job's child, a bad ``max_retries``
    only inside the worker's failure handler, and a ``priority`` that is
    not an integer would be ordered against the others' in the queue.
    """
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise JobRejectedError(f"'priority' must be an integer, got {priority!r}")
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not math.isfinite(timeout)
        or timeout <= 0
    ):
        raise JobRejectedError(
            f"'timeout' must be a finite number of seconds > 0, got {timeout!r}"
        )
    if max_retries is not None and (
        isinstance(max_retries, bool) or not isinstance(max_retries, int) or max_retries < 0
    ):
        raise JobRejectedError(f"'max_retries' must be an integer >= 0, got {max_retries!r}")


@dataclass
class SubmitOutcome:
    """What a submission produced: a cached result or a queued job."""

    status: str  # "cached" | "accepted" | "duplicate"
    key: str
    job: Optional[Job] = None
    cached: Optional[StoredResult] = None

    def describe(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"status": self.status, "key": self.key}
        if self.job is not None:
            payload["job"] = self.job.describe()
        return payload


class SimulationService:
    """Long-running simulation-as-a-service: store + queue + workers.

    ``experiments`` maps experiment names to callables accepting
    ``quick`` (and optionally more keyword parameters); it defaults to
    the CLI registry, so everything ``repro-experiment list`` shows is
    schedulable.  The service owns a private telemetry handle — it
    never touches the process-global one, so an embedding application's
    own tracing is unaffected.
    """

    def __init__(
        self,
        store: ResultStore,
        queue: Optional[JobQueue] = None,
        *,
        experiments: Optional[Mapping[str, Callable[..., ExperimentResult]]] = None,
        workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        salt: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if experiments is None:
            from repro.experiments.registry import EXPERIMENTS

            experiments = EXPERIMENTS
        self.store = store
        self.queue = queue if queue is not None else JobQueue(clock=clock)
        self.experiments = dict(experiments)
        self.retry = retry if retry is not None else RetryPolicy()
        self.salt = salt if salt is not None else code_version_salt()
        self.telemetry = obs.Telemetry()
        self._metrics_lock = threading.Lock()
        self._clock = clock
        self._log = obs.get_logger("service")
        self.catalog = Catalog(store)
        from repro.service.workers import WorkerPool

        self.workers = WorkerPool(self, threads=workers)
        self._started = False

    # -- metric handles ----------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        # HTTP threads and worker threads record concurrently; counter
        # increments are read-modify-write, so serialize them.
        with self._metrics_lock:
            self.telemetry.metrics.counter(f"repro_service_{name}_total").inc(amount)

    def _observe_latency(self, seconds: float) -> None:
        with self._metrics_lock:
            self.telemetry.metrics.histogram(
                "repro_service_job_seconds",
                obs.LATENCY_BUCKETS,
                help="wall-clock seconds per executed job",
            ).observe(seconds)

    def _update_depth(self) -> None:
        with self._metrics_lock:
            self.telemetry.metrics.gauge(
                "repro_service_queue_depth", help="jobs waiting to run"
            ).set(self.queue.depth)

    def _observe_render(self, seconds: float) -> None:
        with self._metrics_lock:
            self.telemetry.metrics.histogram(
                "repro_service_render_seconds",
                obs.LATENCY_BUCKETS,
                help="wall-clock seconds per catalog/report render",
            ).observe(seconds)

    # -- request validation ------------------------------------------

    def build_spec(
        self,
        experiment: str,
        params: Optional[Mapping[str, Any]] = None,
        quick: bool = False,
    ) -> RequestSpec:
        """Validate a request and bind it to this service's salt."""
        if not isinstance(quick, bool):
            raise JobRejectedError(f"'quick' must be true or false, got {quick!r}")
        fn = self.experiments.get(experiment)
        if fn is None:
            raise JobRejectedError(
                f"unknown experiment {experiment!r}; "
                f"registered: {', '.join(sorted(self.experiments))}"
            )
        params = dict(params or {})
        if "jobs" in params:
            # Workers run jobs in daemonic children, which cannot start
            # a sweep's process pool.
            raise JobRejectedError(
                "parameter 'jobs' is not accepted: the worker pool runs "
                "jobs side by side, and parallelism changes wall-clock only"
            )
        signature = inspect.signature(fn)
        for name, value in params.items():
            if name not in signature.parameters:
                raise JobRejectedError(
                    f"experiment {experiment!r} takes no parameter {name!r}"
                )
            if not isinstance(value, (str, int, float, bool, type(None))):
                raise JobRejectedError(
                    f"parameter {name!r} must be plain data, got "
                    f"{type(value).__name__}"
                )
        return RequestSpec.build(experiment, params, quick=quick, salt=self.salt)

    # -- the request lifecycle ---------------------------------------

    def submit(
        self,
        experiment: str,
        params: Optional[Mapping[str, Any]] = None,
        quick: bool = False,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> SubmitOutcome:
        """Serve from the store, dedupe in-flight, or enqueue.

        Raises :class:`JobRejectedError` on a bad request and
        :class:`~repro.errors.QueueFullError` when backpressure rejects
        the submission.
        """
        self._count("requests")
        spec = self.build_spec(experiment, params, quick)
        _check_knobs(priority, timeout, max_retries)
        cached = self.store.get(spec.key)
        if cached is not None:
            self._count("cache_hits")
            return SubmitOutcome(status="cached", key=spec.key, cached=cached)
        self._count("cache_misses")
        request = JobRequest(
            spec=spec, priority=priority, timeout=timeout, max_retries=max_retries
        )
        job, deduplicated = self.queue.submit(request)
        self._update_depth()
        if deduplicated:
            self._count("jobs_deduplicated")
            return SubmitOutcome(status="duplicate", key=spec.key, job=job)
        self._count("jobs_accepted")
        return SubmitOutcome(status="accepted", key=spec.key, job=job)

    # -- worker callbacks --------------------------------------------

    def executable_for(self, job: Job) -> Callable[..., ExperimentResult]:
        fn = self.experiments.get(job.request.spec.experiment)
        if fn is None:  # registry changed under a live queue
            raise InvariantError(
                f"job {job.id} names unregistered experiment "
                f"{job.request.spec.experiment!r}"
            )
        return fn

    def max_retries_for(self, job: Job) -> int:
        declared = job.request.max_retries
        return self.retry.max_retries if declared is None else declared

    def job_succeeded(
        self, job: Job, result: ExperimentResult, seconds: float
    ) -> None:
        key = self.store.put(
            job.request.spec,
            result,
            meta={
                "job_id": job.id,
                "attempts": job.attempts,
                "seconds": round(seconds, 4),
                "code_version": self.salt,
            },
        )
        self.queue.succeed(job, key)
        self._count("jobs_succeeded")
        self._observe_latency(seconds)
        self._update_depth()
        self._log.info("job %s succeeded in %.2fs -> %s", job.id, seconds, key[:12])

    def job_failed(
        self, job: Job, error: str, seconds: float, timed_out: bool = False
    ) -> None:
        """Retry with backoff while the budget lasts, else fail."""
        self._observe_latency(seconds)
        if timed_out:
            self._count("jobs_timed_out")
        if job.attempts <= self.max_retries_for(job):
            delay = self.retry.delay(job.attempts)
            self.queue.retry(job, delay)
            self._count("jobs_retried")
            self._update_depth()
            self._log.warning(
                "job %s attempt %d failed (%s); retrying in %.2fs",
                job.id, job.attempts, error, delay,
            )
        else:
            self.queue.fail(job, error)
            self._count("jobs_failed")
            self._update_depth()
            self._log.error(
                "job %s failed after %d attempts: %s", job.id, job.attempts, error
            )

    # -- introspection -----------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        return self.queue.get(job_id)

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "queue_depth": self.queue.depth,
            "running": self.queue.running,
            "workers": self.workers.threads,
            "accepting": not self.queue.closed,
            "code_version": self.salt,
            "git_sha": git_sha(),
        }

    def metrics_text(self) -> str:
        self._update_depth()
        return self.telemetry.metrics.to_prometheus()

    # -- catalog + reports (the self-updating dashboard) -------------

    def catalog_rows(
        self, experiment: Optional[str] = None, limit: Optional[int] = None
    ) -> list:
        """Query the catalog over the live store's index entries.

        The catalog reads the store's in-memory entries, results not yet
        flushed included, so the dashboard is current on every request.
        """
        self._count("catalog_requests")
        started = self._clock()
        rows = self.catalog.rows(experiment=experiment, limit=limit)
        self._observe_render(self._clock() - started)
        return rows

    def report_page(self, experiment: Optional[str] = None) -> Optional[str]:
        """Render the report index (``experiment=None``) or one page.

        Returns ``None`` when the named experiment has no stored runs —
        the HTTP layer turns that into a 404.
        """
        from repro.report.render import render_experiment, render_index

        self._count("report_requests")
        started = self._clock()
        if experiment is None:
            html = render_index(self.catalog)
        else:
            html = render_experiment(self.catalog, experiment)
        self._observe_render(self._clock() - started)
        return html

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "SimulationService":
        if self._started:
            raise InvariantError("service already started")
        self._started = True
        # Jobs run in children forked from here: load the ILP solver once,
        # so an AutoTM job's child inherits it (about 40 MB held here).
        release_threads()
        self.workers.start()
        self._log.info(
            "service started: %d workers, queue capacity %d, salt %s",
            self.workers.threads, self.queue.capacity, self.salt,
        )
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admitting, finish (or cancel) the backlog, flush the store."""
        self.queue.close()
        if drain:
            self.queue.drain(timeout=timeout)
        else:
            self.queue.cancel_pending()
        self.workers.stop(timeout=timeout)
        flushed = self.store.flush()
        self._log.info("service stopped (drain=%s, %d index entries)", drain, flushed)

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown(drain=False, timeout=10.0)
