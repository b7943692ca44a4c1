"""Simulation-as-a-service: job queue, worker pool, result store, HTTP.

The one-shot CLI recomputes every experiment on every invocation; this
package turns the same deterministic sweeps into a long-running service
that *remembers*.  The paper's economics (Section IV: hardware redoes
work software can skip) applied to the harness itself:

* :mod:`repro.service.store` — content-addressed result store: a
  request ``(experiment, params, quick, code-version salt)`` hashes to
  a stable key; identical requests are O(1) file reads, not re-runs.
  Its ``index.jsonl`` holds one line per run, headline metrics
  included, and is re-derived from the payloads when lost or torn.
* :mod:`repro.service.queue` — bounded priority queue with explicit
  backpressure, in-flight deduplication, and backoff-aware claiming.
* :mod:`repro.service.scheduler` — retry policy and the
  :class:`SimulationService` facade owning the request lifecycle.
* :mod:`repro.service.workers` — worker threads executing jobs in
  forked children (killable timeouts, crash isolation) and merging
  child telemetry into the service registry.
* :mod:`repro.service.http` — stdlib ``ThreadingHTTPServer`` front end
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /results/<key>``,
  ``GET /catalog``, ``GET /reports/``, ``GET /healthz``,
  ``GET /metrics``).
* :mod:`repro.service.catalog` — read-only view over the store's
  index entries (experiment / params / git SHA / salt / headline
  metrics) with trajectory and param-diff queries; backs the
  ``/catalog`` endpoint and the :mod:`repro.report` renderer.
* :mod:`repro.service.versioning` — the code-version salt and git SHA
  that keep stored results honest across code changes.

Quickstart::

    repro-experiment serve --store ./results --workers 4
    curl -XPOST localhost:8023/jobs -d '{"experiment":"table1","quick":true}'
"""

from repro.service.catalog import Catalog
from repro.service.queue import Job, JobQueue, JobRequest, JobState
from repro.service.scheduler import RetryPolicy, SimulationService, SubmitOutcome
from repro.service.store import (
    IndexEntry,
    RequestSpec,
    ResultStore,
    StoredResult,
    canonical_json,
)
from repro.service.versioning import code_version_salt, git_sha
from repro.service.workers import WorkerPool

__all__ = [
    "Catalog",
    "IndexEntry",
    "Job",
    "JobQueue",
    "JobRequest",
    "JobState",
    "RequestSpec",
    "ResultStore",
    "RetryPolicy",
    "SimulationService",
    "StoredResult",
    "SubmitOutcome",
    "WorkerPool",
    "canonical_json",
    "code_version_salt",
    "git_sha",
]
