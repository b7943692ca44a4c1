"""Service fault paths, injected into the forked child that runs a job.

A job whose experiment outlives its timeout is killed, and a job whose
child dies without a result surfaces as a failed attempt.  Either way
the retry policy runs its course, the job ends ``FAILED``, and the
worker thread that ran it goes on to serve the next job.  A crash is
seen at once even while a sibling worker forks its own job's child.
"""

import multiprocessing.context
import os
import threading
import time

import pytest

from repro.exec import fork_available
from repro.experiments.base import ExperimentResult
from repro.service.queue import JobState
from repro.service.scheduler import RetryPolicy, SimulationService
from repro.service.store import ResultStore

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="faults are injected into forked job children"
)

#: The test process: the crashing experiment refuses to exit it.
_TEST_PID = os.getpid()


def slow_experiment(quick=True):
    time.sleep(60.0)  # the job's timeout kills the child long before this
    return ExperimentResult(name="slow", title="slow", data={})


def crashing_experiment(quick=True):
    if os.getpid() == _TEST_PID:
        raise RuntimeError("crashing_experiment must run in a forked job child")
    os._exit(3)


def tiny_experiment(quick=True):
    return ExperimentResult(name="tiny", title="tiny", data={"quick": quick})


def two_second_experiment(quick=True):
    time.sleep(2.0)
    return ExperimentResult(name="two_seconds", title="two seconds", data={})


@pytest.fixture
def service(tmp_path):
    service = SimulationService(
        ResultStore(tmp_path / "store"),
        experiments={
            "slow": slow_experiment,
            "crash": crashing_experiment,
            "tiny": tiny_experiment,
        },
        workers=1,
        retry=RetryPolicy(max_retries=1, backoff_base=0.01),
        salt="f" * 16,
    )
    service.start()
    yield service
    service.shutdown(drain=False, timeout=5.0)


def wait_until_done(job, seconds=10.0):
    deadline = time.monotonic() + seconds  # repro-lint: disable=DET001
    while job.state not in (JobState.SUCCEEDED, JobState.FAILED):
        assert time.monotonic() < deadline, (  # repro-lint: disable=DET001
            f"job stuck in {job.state}"
        )
        time.sleep(0.01)


def counter(service, name):
    return dict(service.telemetry.metrics.snapshot().counters).get(name, 0.0)


def assert_worker_serves_next_job(service):
    (worker,) = service.workers._threads
    outcome = service.submit("tiny", quick=True)
    wait_until_done(outcome.job)
    assert outcome.job.state is JobState.SUCCEEDED
    assert worker.is_alive()
    assert service.workers._threads == [worker]


class TestWorkerFaults:
    def test_overrunning_job_is_killed_retried_and_failed(self, service):
        outcome = service.submit("slow", quick=True, timeout=0.3)
        wait_until_done(outcome.job)
        assert outcome.job.state is JobState.FAILED
        assert outcome.job.attempts == 2  # 1 attempt + max_retries
        assert "timeout and was killed" in outcome.job.error
        assert counter(service, "repro_service_jobs_timed_out_total") == 2.0
        assert counter(service, "repro_service_jobs_retried_total") == 1.0
        assert_worker_serves_next_job(service)

    def test_job_whose_child_dies_is_retried_and_failed(self, service):
        outcome = service.submit("crash", quick=True)
        wait_until_done(outcome.job)
        assert outcome.job.state is JobState.FAILED
        assert outcome.job.attempts == 2
        assert "died without a result (exit code 3)" in outcome.job.error
        assert counter(service, "repro_service_jobs_timed_out_total") == 0.0
        assert counter(service, "repro_service_jobs_failed_total") == 1.0
        assert_worker_serves_next_job(service)


#: How long the crash job's fork waits for a sibling to fork first.
FORK_WINDOW_SECONDS = 0.5


def test_crash_is_reported_while_a_sibling_forks(tmp_path, monkeypatch):
    """A worker creates its job's pipe, forks the child and closes its own
    copy of the pipe's write end.  A sibling worker that forked inside
    that window would hand its child another copy, so the crash would
    show only when the sibling's 2 s job ended.  Here the crash job's
    fork waits for the sibling to fork first (up to
    ``FORK_WINDOW_SECONDS``); the crash must still be reported within
    1 s of its submission."""
    window_open, sibling_forked = threading.Event(), threading.Event()
    real_start = multiprocessing.context.ForkProcess.start
    starts = []

    def start(process):
        starts.append(process)
        if len(starts) == 1:  # the crash job's child
            window_open.set()
            sibling_forked.wait(FORK_WINDOW_SECONDS)
            real_start(process)
        else:
            real_start(process)
            sibling_forked.set()

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    service = SimulationService(
        ResultStore(tmp_path / "store"),
        experiments={"crash": crashing_experiment, "two_seconds": two_second_experiment},
        workers=2,
        retry=RetryPolicy(max_retries=0),
        salt="f" * 16,
    )
    service.start()
    try:
        crash = service.submit("crash", quick=True).job
        assert window_open.wait(5.0)
        sibling = service.submit("two_seconds", quick=True).job
        wait_until_done(crash)
        assert crash.state is JobState.FAILED
        assert "died without a result (exit code 3)" in crash.error
        assert crash.finished_at - crash.submitted_at < 1.0
        wait_until_done(sibling)
        assert sibling.state is JobState.SUCCEEDED
    finally:
        service.shutdown(drain=False, timeout=5.0)
