"""Queue semantics driven by a fake clock: no sleeps, no flakes."""

import pytest

from repro.errors import JobRejectedError, QueueFullError
from repro.experiments.base import ExperimentResult
from repro.service.queue import JobQueue, JobRequest, JobState
from repro.service.scheduler import RetryPolicy, SimulationService
from repro.service.store import RequestSpec, ResultStore


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def request(name, priority=0, **kwargs):
    spec = RequestSpec.build(name, quick=True, salt="t" * 16)
    return JobRequest(spec=spec, priority=priority, **kwargs)


class TestSubmission:
    def test_backpressure_is_explicit(self):
        queue = JobQueue(capacity=2, clock=FakeClock())
        queue.submit(request("a"))
        queue.submit(request("b"))
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(request("c"))
        assert "capacity" in str(excinfo.value)
        assert queue.depth == 2

    def test_duplicate_inflight_requests_share_a_job(self):
        queue = JobQueue(clock=FakeClock())
        first, deduped_first = queue.submit(request("a"))
        second, deduped_second = queue.submit(request("a"))
        assert not deduped_first
        assert deduped_second
        assert first is second
        assert queue.depth == 1

    def test_dedup_releases_after_completion(self):
        queue = JobQueue(clock=FakeClock())
        job, _ = queue.submit(request("a"))
        claimed = queue.claim(timeout=0)
        queue.succeed(claimed, result_key="k")
        fresh, deduped = queue.submit(request("a"))
        assert not deduped
        assert fresh is not job

    def test_closed_queue_rejects_submissions(self):
        queue = JobQueue(clock=FakeClock())
        queue.close()
        with pytest.raises(RuntimeError):
            queue.submit(request("a"))


class TestClaiming:
    def test_priority_then_fifo(self):
        queue = JobQueue(clock=FakeClock())
        queue.submit(request("low", priority=0))
        queue.submit(request("high", priority=5))
        queue.submit(request("mid", priority=1))
        queue.submit(request("mid2", priority=1))
        order = [queue.claim(timeout=0).request.spec.experiment for _ in range(4)]
        assert order == ["high", "mid", "mid2", "low"]

    def test_empty_poll_returns_none(self):
        queue = JobQueue(clock=FakeClock())
        assert queue.claim(timeout=0) is None

    def test_claim_marks_running_and_counts_attempts(self):
        clock = FakeClock(5.0)
        queue = JobQueue(clock=clock)
        queue.submit(request("a"))
        job = queue.claim(timeout=0)
        assert job.state is JobState.RUNNING
        assert job.attempts == 1
        assert job.started_at == 5.0

    def test_closed_and_drained_returns_none_immediately(self):
        queue = JobQueue(clock=FakeClock())
        queue.submit(request("a"))
        queue.close()
        assert queue.claim(timeout=0) is not None  # drain pending first
        assert queue.claim() is None  # then the worker-exit signal


class TestRetryBackoff:
    def test_retried_job_waits_out_its_backoff(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        queue.submit(request("a"))
        job = queue.claim(timeout=0)
        queue.retry(job, delay=10.0)

        assert queue.claim(timeout=0) is None  # still backing off
        clock.advance(9.99)
        assert queue.claim(timeout=0) is None
        clock.advance(0.01)
        again = queue.claim(timeout=0)
        assert again is job
        assert again.attempts == 2

    def test_cancel_pending_marks_cancelled(self):
        queue = JobQueue(clock=FakeClock())
        job, _ = queue.submit(request("a"))
        assert queue.cancel_pending() == 1
        assert job.state is JobState.CANCELLED
        assert job.error == "cancelled at shutdown"
        assert queue.depth == 0


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_max=3.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_rejects_bad_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


def _stub_experiment(quick=False, jobs=1):
    """Takes ``jobs`` like the registry's sweep experiments."""
    result = ExperimentResult(name="stub", title="stub")
    result.data = {"quick": quick}
    return result


class TestSchedulerLifecycle:
    """Drive the service's retry/fail logic directly with a fake clock.

    The worker pool is never started; the test claims jobs itself, so
    every transition is deterministic.
    """

    def make_service(self, tmp_path, clock, **kwargs):
        kwargs.setdefault("retry", RetryPolicy(max_retries=2, backoff_base=10.0))
        return SimulationService(
            ResultStore(tmp_path / "store", clock=clock),
            JobQueue(clock=clock),
            experiments={"stub": _stub_experiment},
            salt="t" * 16,
            clock=clock,
            **kwargs,
        )

    def test_failure_retries_then_fails_for_good(self, tmp_path):
        clock = FakeClock()
        service = self.make_service(tmp_path, clock)
        outcome = service.submit("stub", quick=True)
        assert outcome.status == "accepted"

        job = service.queue.claim(timeout=0)
        for expected_attempt in (1, 2):
            assert job.attempts == expected_attempt
            service.job_failed(job, "boom", seconds=0.1)
            assert job.state is JobState.PENDING
            clock.advance(100.0)  # clear any backoff
            job = service.queue.claim(timeout=0)

        assert job.attempts == 3  # 1 initial + max_retries
        service.job_failed(job, "boom", seconds=0.1)
        assert job.state is JobState.FAILED
        assert job.error == "boom"
        snapshot = dict(service.telemetry.metrics.snapshot().counters)
        assert snapshot["repro_service_jobs_retried_total"] == 2.0
        assert snapshot["repro_service_jobs_failed_total"] == 1.0

    def test_per_request_max_retries_overrides_policy(self, tmp_path):
        clock = FakeClock()
        service = self.make_service(tmp_path, clock)
        service.submit("stub", quick=True, max_retries=0)
        job = service.queue.claim(timeout=0)
        service.job_failed(job, "boom", seconds=0.1)
        assert job.state is JobState.FAILED

    def test_success_persists_and_serves_from_store(self, tmp_path):
        clock = FakeClock()
        service = self.make_service(tmp_path, clock)
        outcome = service.submit("stub", quick=True)
        job = service.queue.claim(timeout=0)
        service.job_succeeded(job, _stub_experiment(quick=True), seconds=0.2)

        assert job.state is JobState.SUCCEEDED
        assert job.result_key == outcome.key
        again = service.submit("stub", quick=True)
        assert again.status == "cached"
        assert again.cached.result.data == {"quick": True}
        snapshot = dict(service.telemetry.metrics.snapshot().counters)
        assert snapshot["repro_service_cache_hits_total"] == 1.0
        assert snapshot["repro_service_cache_misses_total"] == 1.0

    def test_jobs_parameter_is_rejected_not_queued(self, tmp_path):
        """A worker's daemonic child cannot start a sweep's process pool,
        and parallelism changes wall-clock only: ``jobs`` is refused."""
        service = self.make_service(tmp_path, FakeClock())
        with pytest.raises(JobRejectedError, match="'jobs'"):
            service.submit("stub", params={"jobs": 2}, quick=True)
        assert service.queue.depth == 0

    def test_timed_out_attempts_are_counted(self, tmp_path):
        clock = FakeClock()
        service = self.make_service(tmp_path, clock)
        service.submit("stub", quick=True, max_retries=0)
        job = service.queue.claim(timeout=0)
        service.job_failed(job, "timed out", seconds=1.0, timed_out=True)
        snapshot = dict(service.telemetry.metrics.snapshot().counters)
        assert snapshot["repro_service_jobs_timed_out_total"] == 1.0
