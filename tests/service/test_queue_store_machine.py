"""The job queue and the result store under random interleavings.

A Hypothesis state machine drives what the service does to the two
(submit with repeated keys, claim, succeed with a ``put``, fail, retry,
cancel what is pending, flush, reopen the store) against a plain model,
and checks after every step that no submitted job is lost, that a live
key's job is shared, also across retries, and that a reopened store
holds each key's payload and index line once.  The queue runs on a fake
clock, and the run is derandomized: the same examples every time.  Each
rule runs only where it can act, and cancelling waits for a full queue,
so that most examples carry jobs through to a stored result.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import QueueFullError
from repro.experiments.base import ExperimentResult
from repro.service.queue import JobQueue, JobRequest, JobState
from repro.service.store import RequestSpec, ResultStore

#: A small key space, so that submissions repeat keys.
EXPERIMENTS = ("a", "b", "c", "d")
CAPACITY = 3
LIVE = (JobState.PENDING, JobState.RUNNING)


class QueueAndStore(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="repro-queue-store-"))
        self.now = 0.0
        self.queue = JobQueue(capacity=CAPACITY, clock=lambda: self.now)
        self.store = ResultStore(self.root, clock=lambda: 0.0)
        # The model.
        self.states = {}  # job id -> JobState
        self.not_before = {}  # job id -> clock time it may be claimed
        self.live = {}  # key -> id of its pending or running job
        self.stored = set()  # keys put
        self.unflushed = 0  # puts since the last flush or reopen

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def ids(self, state):
        return sorted(job_id for job_id, s in self.states.items() if s is state)

    def backing_off(self):
        return any(self.not_before[job_id] > self.now for job_id in self.ids(JobState.PENDING))

    def running_job(self, pick):
        ids = self.ids(JobState.RUNNING)
        return self.queue.get(ids[pick % len(ids)])

    def finish(self, job, state):
        self.states[job.id] = state
        del self.live[job.key]

    @rule(experiment=st.sampled_from(EXPERIMENTS))
    def submit(self, experiment):
        spec = RequestSpec.build(experiment, quick=True, salt="s" * 16)
        live = self.live.get(spec.key)
        if live is None and len(self.ids(JobState.PENDING)) >= CAPACITY:
            with pytest.raises(QueueFullError):
                self.queue.submit(JobRequest(spec=spec))
            return
        job, deduplicated = self.queue.submit(JobRequest(spec=spec))
        if live is not None:  # pending or running, retried or not
            assert deduplicated and job.id == live
            return
        assert not deduplicated and job.id not in self.states
        self.states[job.id] = JobState.PENDING
        self.not_before[job.id] = 0.0
        self.live[spec.key] = job.id

    @precondition(lambda self: self.ids(JobState.PENDING))
    @rule()
    def claim(self):
        eligible = [
            job_id
            for job_id in self.ids(JobState.PENDING)
            if self.not_before[job_id] <= self.now
        ]
        job = self.queue.claim(timeout=0)
        if not eligible:
            assert job is None
            return
        # One priority, so the earliest submission goes first.
        assert job.id == min(eligible)
        self.states[job.id] = JobState.RUNNING

    @precondition(lambda self: self.ids(JobState.RUNNING))
    @rule(pick=st.integers(0, 7))
    def succeed(self, pick):
        job = self.running_job(pick)
        result = ExperimentResult(
            name=job.request.spec.experiment, title="stub", data={"attempts": job.attempts}
        )
        key = self.store.put(job.request.spec, result)
        assert key == job.key
        self.queue.succeed(job, key)
        self.finish(job, JobState.SUCCEEDED)
        self.stored.add(key)
        self.unflushed += 1

    @precondition(lambda self: self.ids(JobState.RUNNING))
    @rule(pick=st.integers(0, 7))
    def fail(self, pick):
        job = self.running_job(pick)
        self.queue.fail(job, "boom")
        self.finish(job, JobState.FAILED)

    @precondition(lambda self: self.ids(JobState.RUNNING))
    @rule(pick=st.integers(0, 7), delay=st.sampled_from((0.0, 1.0, 2.0)))
    def retry(self, pick, delay):
        job = self.running_job(pick)
        self.queue.retry(job, delay)
        self.states[job.id] = JobState.PENDING
        self.not_before[job.id] = self.now + delay

    @precondition(lambda self: self.backing_off())
    @rule()
    def tick(self):
        self.now += 1.0

    @precondition(lambda self: len(self.ids(JobState.PENDING)) >= CAPACITY)
    @rule()
    def cancel_pending(self):
        pending = self.ids(JobState.PENDING)
        assert self.queue.cancel_pending() == len(pending)
        for job_id in pending:
            self.finish(self.queue.get(job_id), JobState.CANCELLED)

    @precondition(lambda self: self.unflushed)
    @rule()
    def flush(self):
        assert self.store.flush() == self.unflushed
        self.unflushed = 0

    @precondition(lambda self: self.stored)
    @rule()
    def reopen(self):
        # Puts not yet flushed are re-derived from their payloads.
        self.store = ResultStore(self.root, clock=lambda: 0.0)
        self.unflushed = 0
        lines = self.store.index_path.read_text().splitlines()
        assert sorted(json.loads(line)["key"] for line in lines) == sorted(self.stored)
        payloads = sorted(path.stem for path in self.root.glob("??/*.json"))
        assert payloads == sorted(self.stored)
        assert not list(self.root.glob("**/*.tmp"))

    @invariant()
    def no_job_is_lost(self):
        for job_id, state in self.states.items():
            assert self.queue.get(job_id).state is state
        assert self.queue.depth == len(self.ids(JobState.PENDING))
        assert self.queue.running == len(self.ids(JobState.RUNNING))
        live = {job_id for job_id, state in self.states.items() if state in LIVE}
        assert sorted(self.live.values()) == sorted(live)

    @invariant()
    def each_stored_key_has_one_entry(self):
        keys = [entry.key for entry in self.store.entries()]
        assert sorted(keys) == sorted(self.stored)


QueueAndStore.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True
)
TestQueueAndStore = QueueAndStore.TestCase
