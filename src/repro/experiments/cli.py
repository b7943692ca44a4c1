"""``repro-experiment`` command-line entry point.

Usage::

    repro-experiment list
    repro-experiment fig2 [--quick] [--jobs 4]
    repro-experiment all [--quick] [--jobs 4]
    repro-experiment all --quick --store ./results     # reuse cached results
    repro-experiment serve --store ./results --port 8023 --workers 4
    repro-experiment fig4 --quick --trace out.trace.json --metrics out.prom

``--jobs N`` fans work across N worker processes: a single sweep-based
experiment parallelizes its grid; ``all`` dispatches whole experiments
in parallel.  Results are identical to a serial run — only wall-clock
changes.  Each run prints its wall-clock seconds, and ``--store`` keeps
them in the stored payload's ``meta.seconds``; host-time comparisons
across commits belong to ``perfbench/``.

``--store DIR`` points batch runs at a content-addressed result store
(:mod:`repro.service.store`): experiments whose request key is already
present are served from disk instead of re-simulated, and fresh runs
are persisted for next time.  ``serve`` starts the long-running
simulation service (:mod:`repro.service`) on the same store.

The exit status is 1 when a ``check`` result it prints (alone or within
``all``) has a failing paper claim, so a CI step running ``all`` fails
on a broken claim.  Within ``all``, ``check`` runs last and judges the
results the other experiments left, so each experiment runs once.

``--trace`` writes a Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``; a ``.jsonl`` suffix switches to one-span-per-line
JSONL).  ``--metrics`` writes a Prometheus text exposition of every
counter, gauge, and histogram the run touched — both capture worker
telemetry too, merged back through the sweep engine.  ``--log-level``
routes the ``repro.*`` logger hierarchy to stderr at the given level.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.autotm.ilp import release_threads
from repro.exec import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import (
    EXPERIMENTS,
    load_all,
    registered_names,
    run_experiment,
)


def _run_named(name: str, quick: bool) -> Tuple[ExperimentResult, float]:
    """Sweep point for ``all``: one experiment, timed inside the worker."""
    start = time.time()
    result = run_experiment(name, quick=quick)
    return result, time.time() - start


def _emit(result: ExperimentResult, seconds: float, args, cached: bool = False) -> None:
    """Print one finished experiment and its wall-clock."""
    print(result.render())
    if args.json:
        from repro.perf.export import export_result

        directory = Path(args.json)
        directory.mkdir(parents=True, exist_ok=True)
        written = export_result(result, directory / f"{result.name}.json")
        print(f"[exported {written}]")
    suffix = " (served from store)" if cached else ""
    print(f"\n[{result.name} completed in {seconds:.1f}s{suffix}]\n")


def _write_metrics(registry: obs.MetricsRegistry, path: str) -> None:
    """Write ``registry`` as Prometheus text exposition to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(registry.to_prometheus())
    print(f"[metrics -> {target}]")


def _serve(args) -> int:
    """Run the long-lived simulation service until interrupted."""
    from repro.service import JobQueue, ResultStore, SimulationService
    from repro.service.http import make_server

    store_dir = args.store or "repro-store"
    service = SimulationService(
        ResultStore(store_dir),
        JobQueue(capacity=args.queue_capacity),
        workers=args.workers,
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    service.start()
    print(f"[serving on http://{host}:{port}  store={store_dir}  "
          f"workers={args.workers}  queue={args.queue_capacity}]")
    print("[POST /jobs | GET /jobs/<id> | GET /results/<key> | "
          "GET /catalog | GET /reports/ | GET /healthz | GET /metrics]")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\n[shutting down: draining queue]")
    finally:
        # serve_forever has exited by now, so shutdown() returns
        # immediately; drain what was already admitted, then flush.
        server.shutdown()
        server.server_close()
        service.shutdown(drain=True, timeout=60.0)
        if args.metrics:
            _write_metrics(service.telemetry.metrics, args.metrics)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Regenerate tables and figures from 'A Case Against Hardware "
            "Managed DRAM Caches for NVRAM Based Systems' (ISPASS 2021)"
        ),
    )
    parser.add_argument(
        "name",
        help="experiment name, 'all', 'list', or 'serve'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink workload sizes for a fast smoke run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan work across N worker processes (default 1 = serial; "
            "results are identical either way)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        help="also export each result as JSON into this directory",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "content-addressed result store: serve already-computed "
            "experiments from DIR instead of re-simulating, and persist "
            "fresh results there (also the store 'serve' uses)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record spans and write a Chrome trace-event JSON here "
            "(use a .jsonl suffix for line-delimited span records)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a Prometheus text exposition of the run's metrics here",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="enable structured logging at LEVEL (debug, info, warning, ...)",
    )
    serve_group = parser.add_argument_group("serve mode")
    serve_group.add_argument(
        "--host", default="127.0.0.1", help="bind address (serve mode)"
    )
    serve_group.add_argument(
        "--port", type=int, default=8023, help="bind port, 0 = ephemeral (serve mode)"
    )
    serve_group.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="service worker threads (serve mode)",
    )
    serve_group.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="pending-job bound before requests are rejected (serve mode)",
    )
    args = parser.parse_args(argv)

    if args.name == "list":
        for name in registered_names():
            print(name)
        return 0

    if args.name not in EXPERIMENTS and args.name not in ("all", "serve"):
        # Same contract as --jobs validation: argparse error, exit code
        # 2, and the caller learns exactly what *is* registered.
        parser.error(
            f"unknown experiment {args.name!r}; "
            f"registered: {', '.join(registered_names())} (or 'all', 'serve')"
        )
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.queue_capacity < 1:
        parser.error(f"--queue-capacity must be >= 1, got {args.queue_capacity}")
    if not 0 <= args.port <= 65535:
        parser.error(f"--port must be in 0..65535, got {args.port}")

    if args.log_level:
        try:
            obs.configure_logging(args.log_level)
        except ValueError as error:
            parser.error(str(error))

    if args.name == "serve":
        return _serve(args)

    names = registered_names() if args.name == "all" else [args.name]
    if args.name == "all":
        # Every experiment module loads now, before any pool or child
        # forks, so no worker pays an import of its own.
        load_all()

    store = None
    specs = {}
    if args.store:
        from repro.service.store import RequestSpec, ResultStore

        store = ResultStore(args.store)
        specs = {name: RequestSpec.build(name, quick=args.quick) for name in names}

    telemetry = None
    if args.trace or args.metrics:
        telemetry = obs.enable()

    try:
        # Store pass: anything already computed for this (name, quick,
        # code version) is served from disk and dropped from the grid.
        finished: Dict[str, Tuple[ExperimentResult, float, bool]] = {}
        to_run = list(names)
        if store is not None:
            for name in names:
                hit = store.get(specs[name].key)
                if hit is not None:
                    finished[name] = (hit.result, 0.0, True)
            to_run = [name for name in names if name not in finished]
        # Under 'all', check judges the results the other experiments
        # leave here instead of running each of them a second time.
        judge_last = args.name == "all" and "check" in to_run
        if judge_last:
            to_run.remove("check")

        if len(to_run) > 1 and args.jobs > 1:
            # 'all': the experiment list is itself a sweep — dispatch
            # whole experiments across the pool (inner sweeps stay
            # serial so the machine isn't oversubscribed).  The ILP
            # solver loads here, before the pool forks, so no worker
            # pays its import on a first solve: that delay would
            # reshuffle which worker takes which experiment, and
            # experiments that share a worker share its memoized runs.
            release_threads()
            spec = SweepSpec.grid(
                "experiments",
                _run_named,
                axes={"name": to_run},
                common=dict(quick=args.quick),
            )
            for name, (result, seconds) in zip(to_run, run_sweep(spec, jobs=args.jobs)):
                finished[name] = (result, seconds, False)
        else:
            for name in to_run:
                start = time.time()
                result = run_experiment(name, quick=args.quick, jobs=args.jobs)
                finished[name] = (result, time.time() - start, False)
        if judge_last:
            start = time.time()
            results = {name: result for name, (result, _, _) in finished.items()}
            result = run_experiment("check", quick=args.quick, results=results)
            finished["check"] = (result, time.time() - start, False)

        for name in names:
            result, seconds, cached = finished[name]
            if store is not None and not cached:
                store.put(result=result, spec=specs[name], meta={"seconds": seconds})
            _emit(result, seconds, args, cached=cached)
        if store is not None:
            store.flush()
    finally:
        if telemetry is not None:
            if args.trace:
                if str(args.trace).endswith(".jsonl"):
                    written = telemetry.tracer.write_jsonl(args.trace)
                else:
                    written = telemetry.tracer.write_chrome(args.trace)
                print(f"[trace: {len(telemetry.tracer)} spans -> {written}]")
            if args.metrics:
                _write_metrics(telemetry.metrics, args.metrics)
            obs.disable()
    check = finished.get("check")
    if check is not None and not check[0].data.get("all_pass"):
        print("repro-experiment: a paper claim failed (see check)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
