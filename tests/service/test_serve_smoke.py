"""End-to-end service smoke test over real HTTP on an ephemeral port."""

import contextlib
import json
import multiprocessing
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection, HTTPResponse
from urllib.parse import urlsplit

import pytest

from repro.experiments.base import ExperimentResult
from repro.service import JobQueue, ResultStore, SimulationService
from repro.service.http import make_server

#: How long the stub "simulation" takes; the cached path must beat the
#: computed path by >= 10x, so keep this comfortably above HTTP noise.
SIMULATED_SECONDS = 0.3

POLL_DEADLINE = 30.0


def sleepy_experiment(quick=False, jobs=1):
    """Takes ``jobs`` like the registry's sweep experiments."""
    time.sleep(SIMULATED_SECONDS)
    result = ExperimentResult(name="sleepy", title="a slow stub")
    result.add("slept, then rendered")
    result.data = {"quick": quick, "answer": 42}
    return result


def http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


def get_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def get_with_headers(url):
    request = urllib.request.Request(url, method="GET")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def post_raw(base, content_length, body=b""):
    """POST /jobs with a hand-written ``Content-Length``, keeping the socket open.

    Returns the reply's status and JSON body; a server that never answers
    fails the caller with ``socket.timeout``.
    """
    address = urlsplit(base)
    with socket.create_connection((address.hostname, address.port), timeout=3) as sock:
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n" + body
        )
        response = HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


def make_service(store_root):
    return SimulationService(
        ResultStore(store_root),
        JobQueue(capacity=8),
        experiments={"sleepy": sleepy_experiment},
        workers=1,
        salt="s" * 16,
    )


@contextlib.contextmanager
def serving(service):
    """Serve ``service`` over HTTP on an ephemeral port; yields the URL."""
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def served(tmp_path):
    service = make_service(tmp_path / "store")
    with serving(service) as base:
        service.start()
        try:
            yield service, base, tmp_path / "store"
        finally:
            if not service.queue.closed:
                service.shutdown(drain=False, timeout=10.0)


def poll_until_done(base, job_id):
    # Job latency is host time: this smoke test measures the service.
    deadline = time.monotonic() + POLL_DEADLINE  # repro-lint: disable=DET001
    while time.monotonic() < deadline:  # repro-lint: disable=DET001
        status, payload = http("GET", f"{base}/jobs/{job_id}")
        assert status == 200
        if payload["state"] in ("succeeded", "failed", "cancelled"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {POLL_DEADLINE}s")


class TestServeSmoke:
    def test_full_lifecycle_cache_hit_and_graceful_shutdown(self, served):
        service, base, store_root = served

        status, health = http("GET", f"{base}/healthz")
        assert (status, health["status"]) == (200, "ok")
        assert health["workers"] == 1
        assert health["accepting"] is True

        # First submission computes: accepted, then polled to success.
        # Latencies are host time, the subject of this smoke test.
        first_started = time.monotonic()  # repro-lint: disable=DET001
        status, accepted = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "quick": True}
        )
        assert status == 202
        assert accepted["status"] == "accepted"
        job = poll_until_done(base, accepted["job"]["id"])
        first_latency = time.monotonic() - first_started  # repro-lint: disable=DET001
        assert job["state"] == "succeeded"
        assert first_latency >= SIMULATED_SECONDS

        # Resubmitting the identical request is served from the store.
        cached_started = time.monotonic()  # repro-lint: disable=DET001
        status, cached = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "quick": True}
        )
        cached_latency = time.monotonic() - cached_started  # repro-lint: disable=DET001
        assert status == 200
        assert cached["status"] == "cached"
        assert cached["key"] == accepted["key"]
        assert cached_latency < first_latency / 10

        # The stored payload is directly addressable.
        status, stored = http("GET", f"{base}/results/{cached['key']}")
        assert status == 200
        assert stored["result"]["data"] == {"quick": True, "answer": 42}

        # The cache hit shows up on the metrics endpoint.
        status, metrics = get_text(f"{base}/metrics")
        assert status == 200
        assert "repro_service_cache_hits_total 1" in metrics
        assert "repro_service_jobs_succeeded_total 1" in metrics
        assert "repro_service_job_seconds_bucket" in metrics

        # Graceful shutdown drains and flushes the store index.
        service.shutdown(drain=True, timeout=30.0)
        index = store_root / "index.jsonl"
        assert index.is_file()
        entries = [json.loads(line) for line in index.read_text().splitlines()]
        assert [entry["experiment"] for entry in entries] == ["sleepy"]

    def test_exposition_content_types(self, served):
        _, base, _ = served
        # Prometheus scrapers key on the text exposition version; a JSON
        # default here would silently break scraping.
        status, headers, body = get_with_headers(f"{base}/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4"
        assert "repro_service_queue_depth" in body

        status, headers, body = get_with_headers(f"{base}/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["status"] == "ok"

    def test_catalog_and_reports_dashboard(self, served):
        _, base, _ = served

        # Submit + wait so the store has one sleepy result.
        status, accepted = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "quick": True}
        )
        assert status == 202
        poll_until_done(base, accepted["job"]["id"])

        # /catalog serves the indexed run, filtered by experiment.
        status, headers, body = get_with_headers(
            f"{base}/catalog?experiment=sleepy"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["count"] == 1
        (row,) = payload["rows"]
        assert row["experiment"] == "sleepy"
        assert row["salt"] == "s" * 16
        assert row["quick"] is True
        assert row["headline"] == {"answer": 42.0, "quick": 1.0}

        status, _, body = get_with_headers(f"{base}/catalog?experiment=nope")
        assert (status, json.loads(body)["count"]) == (200, 0)

        # /reports/ index and the per-experiment page render live HTML.
        status, headers, body = get_with_headers(f"{base}/reports/")
        assert status == 200
        assert headers["Content-Type"] == "text/html; charset=utf-8"
        assert "sleepy" in body

        for suffix in ("sleepy", "sleepy.html"):
            status, headers, body = get_with_headers(f"{base}/reports/{suffix}")
            assert status == 200
            assert headers["Content-Type"] == "text/html; charset=utf-8"
            assert "<svg" in body  # inline chart, no plotting dependency

        status, _, _ = get_with_headers(f"{base}/reports/unknown")
        assert status == 404

        # Dashboard traffic is itself observable: counters + render
        # latency histogram appear in the same exposition.
        status, metrics = get_text(f"{base}/metrics")
        assert status == 200
        assert "repro_service_catalog_requests_total 2" in metrics
        assert "repro_service_report_requests_total 4" in metrics
        assert "repro_service_render_seconds_bucket" in metrics

    @pytest.mark.parametrize(
        "lose_index",
        [
            lambda index: index.unlink(),
            lambda index: index.write_text(index.read_text()[:40]),
        ],
        ids=["deleted", "truncated"],
    )
    def test_catalog_survives_losing_the_index(self, served, lose_index):
        service, base, store_root = served
        status, accepted = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "quick": True}
        )
        assert status == 202
        poll_until_done(base, accepted["job"]["id"])
        service.store.flush()
        status, before = http("GET", f"{base}/catalog")
        assert (status, before["count"]) == (200, 1)

        # The live service serves from its in-memory index entries.
        lose_index(store_root / "index.jsonl")
        assert http("GET", f"{base}/catalog") == (200, before)
        status, _, body = get_with_headers(f"{base}/reports/")
        assert status == 200
        assert "sleepy" in body
        service.shutdown(drain=True, timeout=30.0)

        # A service restarted on the same store re-derives the index.
        with serving(make_service(store_root)) as restarted:
            assert http("GET", f"{restarted}/catalog") == (200, before)

    def test_duplicate_inflight_submissions_share_one_job(self, served):
        _, base, _ = served
        status, first = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "quick": False}
        )
        assert status == 202
        status, second = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "quick": False}
        )
        assert status == 202
        assert second["status"] == "duplicate"
        assert second["job"]["id"] == first["job"]["id"]
        job = poll_until_done(base, first["job"]["id"])
        assert job["state"] == "succeeded"

    def test_result_keys_cannot_name_files_outside_the_store(self, served):
        """A raw request path is not normalised on the way to the store, so
        ``./..`` in a key must not reach a ``.json`` beside the store."""
        _, base, store_root = served
        secret = b'{"secret": "beside the store"}'
        (store_root.parent / "secret.json").write_bytes(secret)
        for path in ("/results/./../secret", "/results/../secret", "/results/%2e%2e/secret"):
            connection = HTTPConnection(urlsplit(base).netloc, timeout=10)
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                status, body = response.status, response.read()
            finally:
                connection.close()
            assert status == 404, path
            assert b"beside the store" not in body, path

    def test_bad_requests_are_rejected_not_queued(self, served):
        _, base, _ = served
        status, payload = http("POST", f"{base}/jobs", {"experiment": "nope"})
        assert status == 400
        assert "unknown experiment" in payload["error"]
        assert "sleepy" in payload["error"]

        status, payload = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "params": {"bogus": 1}}
        )
        assert status == 400
        assert "bogus" in payload["error"]

        # Parallelism changes wall-clock only; the worker pool owns it.
        status, payload = http(
            "POST", f"{base}/jobs", {"experiment": "sleepy", "params": {"jobs": 2}}
        )
        assert status == 400
        assert "'jobs'" in payload["error"]

        for limit in ("-1", "x"):
            status, payload = http("GET", f"{base}/catalog?limit={limit}")
            assert status == 400
            assert "non-negative" in payload["error"]

        status, _ = http("GET", f"{base}/jobs/job-999999")
        assert status == 404
        status, _ = http("GET", f"{base}/results/{'0' * 64}")
        assert status == 404
        status, _ = http("GET", f"{base}/nope")
        assert status == 404

    @pytest.mark.parametrize("content_length", [b"abc", b"1.5", b"-5", b"-1", b""])
    def test_malformed_content_length_is_a_400(self, served, content_length):
        _, base, _ = served
        status, payload = post_raw(base, content_length, b'{"experiment": "sleepy"}')
        assert status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize("digits", [11, 5000])
    def test_oversized_content_length_is_a_413(self, served, digits):
        _, base, _ = served
        status, payload = post_raw(base, b"9" * digits, b"{}")
        assert status == 413
        assert "body exceeds" in payload["error"]

    def test_malformed_job_fields_are_rejected_and_the_worker_lives(self, served):
        service, base, _ = served
        for field, value in (
            ("quick", "false"),
            ("quick", 1),
            ("timeout", "abc"),
            ("timeout", -1),
            ("timeout", 0),
            ("timeout", True),
            ("timeout", float("inf")),
            ("max_retries", "x"),
            ("max_retries", -1),
            ("max_retries", 1.5),
            ("max_retries", True),
            ("priority", 1.9),
            ("priority", True),
            ("priority", "7"),
        ):
            status, payload = http("POST", f"{base}/jobs", {"experiment": "sleepy", field: value})
            assert status == 400, (field, value)
            assert f"'{field}'" in payload["error"], (field, value)
        assert service.queue.depth == 0

        # The one worker still runs a well-formed job to completion.
        status, accepted = http(
            "POST",
            f"{base}/jobs",
            {"experiment": "sleepy", "quick": False, "timeout": 30, "max_retries": 0,
             "priority": 3},
        )
        assert status == 202
        assert poll_until_done(base, accepted["job"]["id"])["state"] == "succeeded"


class TestSaturatedQueue:
    """Backpressure under concurrent submits: one worker is held on a job
    while parallel clients POST more distinct jobs than the queue holds."""

    CAPACITY = 4
    CLIENTS = 24

    def test_concurrent_submits_fill_the_queue_and_the_rest_get_429(self, tmp_path):
        # Created before any job forks, so the held job's child shares it.
        gate = multiprocessing.get_context("fork").Event()

        def gated(quick=False, n=0):
            if n == 0:
                gate.wait(POLL_DEADLINE)
            result = ExperimentResult(name="gated", title="gated")
            result.data = {"n": n}
            return result

        store_root = tmp_path / "store"
        service = SimulationService(
            ResultStore(store_root),
            JobQueue(capacity=self.CAPACITY),
            experiments={"gated": gated},
            workers=1,
            salt="g" * 16,
        )

        def post(n):
            return http(
                "POST", f"{base}/jobs", {"experiment": "gated", "quick": True, "params": {"n": n}}
            )

        with serving(service) as base:
            service.start()
            try:
                status, held = post(0)
                assert status == 202
                for _ in range(int(POLL_DEADLINE / 0.01)):  # the worker claims it
                    state = http("GET", f"{base}/jobs/{held['job']['id']}")[1]["state"]
                    if state == "running":
                        break
                    time.sleep(0.01)
                assert state == "running"
                with ThreadPoolExecutor(8) as pool:
                    replies = list(pool.map(post, range(1, self.CLIENTS + 1)))

                assert {status for status, _ in replies} <= {202, 429}
                accepted = [body for status, body in replies if status == 202]
                refused = [body for status, body in replies if status == 429]
                assert len(accepted) == self.CAPACITY
                assert len(refused) == self.CLIENTS - self.CAPACITY
                assert all(body["status"] == "accepted" for body in accepted)
                assert all(body["queue_depth"] == self.CAPACITY for body in refused)

                gate.set()
                for body in [held, *accepted]:
                    assert poll_until_done(base, body["job"]["id"])["state"] == "succeeded"
                service.shutdown(drain=True, timeout=10.0)
            finally:
                gate.set()
                if not service.queue.closed:
                    service.shutdown(drain=False, timeout=10.0)

        keys = [body["key"] for body in [held, *accepted]]
        assert all(service.store.get(key) is not None for key in keys)
        lines = (store_root / "index.jsonl").read_text().splitlines()
        indexed = [json.loads(line)["key"] for line in lines]
        assert sorted(indexed) == sorted(keys)
