"""Bounded priority job queue with deduplication and explicit backpressure.

The queue is the service's admission-control point:

* **Bounded.**  ``submit`` on a full queue raises
  :class:`~repro.errors.QueueFullError` — rejection is explicit and
  immediate (HTTP 429 upstream) rather than an unbounded backlog that
  degrades every request.
* **Deduplicated.**  Two identical in-flight requests (same
  content-address key) share one job; the second submitter gets the
  first's job handle back instead of doubling the work.  This is the
  queue-level twin of the result store: the store dedupes across time,
  the queue dedupes across concurrent callers.
* **Prioritized.**  Higher ``priority`` claims first; FIFO within a
  priority level (stable submission sequence numbers break ties).
* **Retry-aware.**  A retried job returns to the pending set with a
  ``not_before`` eligibility time (the scheduler's backoff); ``claim``
  never hands out a job before its time.

All timing goes through an injected ``clock`` so unit tests drive
backoff and timeout logic with a fake clock instead of sleeping.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import QueueFullError
from repro.service.store import RequestSpec


class JobState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class JobRequest:
    """What a submitter asks for: a request spec plus scheduling knobs."""

    spec: RequestSpec
    priority: int = 0
    timeout: Optional[float] = None
    max_retries: Optional[int] = None  # None -> scheduler policy default


@dataclass
class Job:
    """One unit of work flowing through the service."""

    id: str
    request: JobRequest
    state: JobState = JobState.PENDING
    attempts: int = 0
    error: Optional[str] = None
    result_key: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Earliest clock time at which the job may be claimed (backoff).
    not_before: float = 0.0
    _seq: int = field(default=0, repr=False)

    @property
    def key(self) -> str:
        return self.request.spec.key

    def describe(self) -> Dict[str, Any]:
        """JSON-able job summary for status endpoints."""
        return {
            "id": self.id,
            "experiment": self.request.spec.experiment,
            "key": self.key,
            "state": self.state.value,
            "priority": self.request.priority,
            "attempts": self.attempts,
            "error": self.error,
            "result_key": self.result_key,
        }


class JobQueue:
    """Thread-safe bounded queue of :class:`Job` objects.

    ``capacity`` bounds the *pending* set only: running jobs have
    already been admitted, so a full pipeline still finishes what it
    started while rejecting new load.
    """

    def __init__(
        self, capacity: int = 64, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._live_by_key: Dict[str, Job] = {}
        self._pending: List[Job] = []
        self._closed = False
        self._counter = 0

    # -- submission --------------------------------------------------

    def submit(self, request: JobRequest) -> Tuple[Job, bool]:
        """Admit one request; returns ``(job, deduplicated)``.

        Raises :class:`QueueFullError` when the pending set is at
        capacity and :class:`RuntimeError` after :meth:`close`.
        """
        with self._ready:
            if self._closed:
                raise RuntimeError("queue is closed to new submissions")
            existing = self._live_by_key.get(request.spec.key)
            if existing is not None:
                return existing, True
            if len(self._pending) >= self.capacity:
                raise QueueFullError(
                    f"queue at capacity ({self.capacity} pending); retry later"
                )
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:06d}",
                request=request,
                submitted_at=self._clock(),
                _seq=self._counter,
            )
            self._jobs[job.id] = job
            self._live_by_key[job.key] = job
            self._pending.append(job)
            self._ready.notify()
            return job, False

    # -- claiming ----------------------------------------------------

    def _pop_eligible(self, now: float) -> Optional[Job]:
        eligible = [job for job in self._pending if job.not_before <= now]
        if not eligible:
            return None
        best = min(eligible, key=lambda j: (-j.request.priority, j._seq))
        self._pending.remove(best)
        return best

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Claim the best eligible pending job, blocking up to ``timeout``.

        Returns ``None`` when the wait expires, or immediately once the
        queue is closed and drained of pending work (the worker-exit
        signal).  ``timeout=0`` polls without blocking — the fake-clock
        unit-test mode.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while True:
                if self._closed and not self._pending:
                    return None
                now = self._clock()
                job = self._pop_eligible(now)
                if job is not None:
                    job.state = JobState.RUNNING
                    job.attempts += 1
                    job.started_at = now
                    return job
                wait: Optional[float] = None
                if self._pending:  # everything pending is backing off
                    wait = min(j.not_before for j in self._pending) - now
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._ready.wait(wait)

    # -- completion and retry ----------------------------------------

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished_at = self._clock()
        if self._live_by_key.get(job.key) is job:
            del self._live_by_key[job.key]
        self._ready.notify_all()

    def succeed(self, job: Job, result_key: str) -> None:
        with self._ready:
            job.result_key = result_key
            self._finish(job, JobState.SUCCEEDED)

    def fail(self, job: Job, error: str) -> None:
        with self._ready:
            job.error = error
            self._finish(job, JobState.FAILED)

    def retry(self, job: Job, delay: float) -> None:
        """Return a failed attempt to the pending set after ``delay``."""
        with self._ready:
            job.state = JobState.PENDING
            job.not_before = self._clock() + max(0.0, delay)
            self._pending.append(job)
            self._ready.notify()

    def cancel_pending(self) -> int:
        """Cancel every job still waiting; returns how many."""
        with self._ready:
            cancelled = list(self._pending)
            self._pending.clear()
            for job in cancelled:
                job.error = "cancelled at shutdown"
                self._finish(job, JobState.CANCELLED)
            return len(cancelled)

    # -- lifecycle and introspection ---------------------------------

    def close(self) -> None:
        """Stop admitting; claimers drain what is pending, then see None."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    @property
    def depth(self) -> int:
        """Jobs waiting to run (the backpressure signal)."""
        with self._lock:
            return len(self._pending)

    @property
    def running(self) -> int:
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.state is JobState.RUNNING
            )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is pending or running; True when drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while True:
                live = self._pending or any(
                    job.state is JobState.RUNNING for job in self._jobs.values()
                )
                if not live:
                    return True
                wait = 0.05
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._ready.wait(wait)
