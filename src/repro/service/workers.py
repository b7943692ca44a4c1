"""Worker pool: claims jobs and executes them in forked child processes.

Each worker is a thread that claims from the queue and runs the job in
a **forked child process** (the same isolation the sweep engine uses):

* the per-job timeout is enforceable — an overrunning child is killed,
  not abandoned;
* a crashing simulation takes down only its child, and surfaces as a
  retryable :class:`~repro.errors.JobError`;
* the child runs under a fresh :func:`repro.obs.session`, so its
  metrics ship home as a payload the parent merges through
  ``MetricsRegistry.merge_snapshot`` — one registry then serves
  ``GET /metrics`` for the whole service (spans stay in the child).

On platforms without ``fork`` the pool degrades gracefully: jobs run
inline in the worker thread (results identical), but hard timeouts
cannot be enforced and per-job simulation telemetry is not captured.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import JobError, JobTimeoutError
from repro.exec import fork_available, merge_worker_telemetry
from repro.exec.sweep import _WorkerTelemetry
from repro.experiments.base import ExperimentResult
from repro.service.queue import Job

if TYPE_CHECKING:  # import cycle: scheduler instantiates the pool
    from repro.service.scheduler import SimulationService

#: How often a waiting worker re-checks the stop flag and deadline.
_POLL_SECONDS = 0.1


def _child_main(conn, fn: Callable[..., ExperimentResult], kwargs: Dict[str, Any]) -> None:
    """Forked child entry: run the experiment, ship result + metrics."""
    try:
        with obs.session() as tele:
            result = fn(**kwargs)
            payload = _WorkerTelemetry(
                records=[],
                origin_abs=tele.tracer.origin_abs,
                metrics=tele.metrics.snapshot(),
            )
        conn.send(("ok", result, payload))
    # Child barrier: every failure type must cross the pipe as data.
    except BaseException as error:  # repro-lint: disable=EXC001
        try:
            conn.send(("error", f"{type(error).__name__}: {error}", None))
        except Exception:  # repro-lint: disable=EXC001
            pass  # pipe gone: the parent will see EOF and report a crash
    finally:
        conn.close()


class WorkerPool:
    """N worker threads executing queue jobs for a service."""

    def __init__(self, service: "SimulationService", threads: int = 2) -> None:
        if threads < 1:
            raise ValueError(f"worker pool needs >= 1 thread, got {threads}")
        self.service = service
        self.threads = threads
        self._stop = threading.Event()
        self._merge_lock = threading.Lock()
        self._threads: List[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        for index in range(self.threads):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            with self._merge_lock:
                self._threads.append(thread)

    def stop(self, timeout: Optional[float] = None) -> None:
        """Signal workers to exit and join them.

        Call after ``queue.close()``: workers drain pending jobs first
        (``claim`` keeps serving a closed queue until it is empty).
        """
        self._stop.set()
        # Snapshot under the lock, join outside it: joining while
        # holding _merge_lock would deadlock against a worker waiting
        # for it to merge telemetry.
        with self._merge_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)

    # -- the worker loop ---------------------------------------------

    def _worker_loop(self) -> None:
        queue = self.service.queue
        while True:
            job = queue.claim(timeout=_POLL_SECONDS)
            if job is not None:
                self._run_job(job)
                continue
            # None means either a poll timeout (keep spinning) or a
            # closed-and-empty queue (exit).
            if queue.closed and queue.depth == 0:
                return
            if self._stop.is_set() and queue.depth == 0:
                return

    def _run_job(self, job: Job) -> None:
        started = time.monotonic()
        try:
            result, payload = self._execute(job)
        except JobTimeoutError as error:
            self.service.job_failed(
                job, str(error), time.monotonic() - started, timed_out=True
            )
            return
        except JobError as error:
            self.service.job_failed(job, str(error), time.monotonic() - started)
            return
        # Worker barrier: an unexpected failure in the pool machinery
        # itself must mark the job failed, never kill the worker thread.
        except Exception as error:  # repro-lint: disable=EXC001
            self.service.job_failed(
                job,
                f"worker error: {type(error).__name__}: {error}",
                time.monotonic() - started,
            )
            return
        if payload is not None:
            # Tracer/registry mutation is not thread-safe; serialize
            # merges across the pool's worker threads.
            with self._merge_lock:
                merge_worker_telemetry(self.service.telemetry, payload)
        self.service.job_succeeded(job, result, time.monotonic() - started)

    # -- execution strategies ----------------------------------------

    def _execute(self, job: Job) -> Tuple[ExperimentResult, Optional[_WorkerTelemetry]]:
        fn = self.service.executable_for(job)
        kwargs = {"quick": job.request.spec.quick, **dict(job.request.spec.params)}
        if fork_available():
            return self._execute_forked(job, fn, kwargs)
        return fn(**kwargs), None

    def _execute_forked(
        self, job: Job, fn: Callable[..., ExperimentResult], kwargs: Dict[str, Any]
    ) -> Tuple[ExperimentResult, Optional[_WorkerTelemetry]]:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_child_main,
            args=(child_conn, fn, kwargs),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            None
            if job.request.timeout is None
            else time.monotonic() + job.request.timeout
        )
        try:
            while not parent_conn.poll(_POLL_SECONDS):
                if deadline is not None and time.monotonic() >= deadline:
                    process.terminate()
                    process.join(1.0)
                    raise JobTimeoutError(
                        f"job {job.id} exceeded its {job.request.timeout:.1f}s "
                        "timeout and was killed"
                    )
            try:
                status, value, payload = parent_conn.recv()
            except EOFError:
                # EOF can arrive before the child is reaped; join it so
                # the message carries its exit code, not None.
                process.join(1.0)
                raise JobError(
                    f"job {job.id} worker process died without a result "
                    f"(exit code {process.exitcode})"
                ) from None
        finally:
            parent_conn.close()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        if status == "error":
            raise JobError(value)
        return value, payload
