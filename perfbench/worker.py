"""One workload in a fresh interpreter; ``run.py`` spawns and times it.

``--role setup`` builds the inputs, prints ``ready`` and then the host's
speed scale, and exits: one set-up sample.  ``--role run`` does the same
and then measures whole passes over the workload's cells, checks every
cell's simulated statistics, and prints one JSON line.  With ``--trace 1``
it measures one untraced pass, then one pass under the outside-in tracer,
and reports the per-layer metrics instead.

Times are given at a reference host speed.  On a shared host the same
code runs up to 1.45x slower for seconds at a time, whatever the
simulator does.  So a fixed probe (:class:`SpeedProbe`) is read before
and after every cell, and inside long cells at the workload's
``split_sites``; :class:`ScaledClock` scales each interval's wall seconds
by ``PROBE_REFERENCE_S`` over the mean of the two readings around it.
The probe is benchmark code: a change to the simulator moves scaled
times as it moves wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Passes per measured run, at least: with three, the per-cell median
#: drops a noise burst that hits one cell in one pass.
MIN_PASSES = 3
#: Scaled times are seconds on a host on which the probe reads this.  On
#: the shared 2-vCPU VM this was built on it read 2.3-2.4 ms in the
#: usual (slower) state.
PROBE_REFERENCE_S = 2.0e-3
#: Timed repeats per probe reading; the reading is their median.
PROBE_REPEATS = 5


class SpeedProbe:
    """A fixed piece of work, timed: how fast the host runs right now.

    The mix is like the simulator's: a stable argsort, a gather and a
    scan over 16k keys, and a Python loop over a small dict.
    """

    def __init__(self) -> None:
        self.keys = np.random.default_rng(0).integers(0, 1 << 20, size=16_384)
        self.readings: List[float] = []

    def _once(self) -> float:
        start = time.perf_counter()
        order = np.argsort(self.keys, kind="stable")
        np.cumsum(self.keys[order])
        table: Dict[int, int] = {}
        for i in range(3_000):
            table[i & 255] = table.get(i & 255, 0) + i
        return time.perf_counter() - start

    def read(self) -> float:
        """The probe's seconds now: the median of a few timed repeats."""
        reading = statistics.median(self._once() for _ in range(PROBE_REPEATS))
        self.readings.append(reading)
        return reading


class ScaledClock:
    """Wall seconds, and seconds at the reference speed, since :meth:`restart`.

    :meth:`split` ends an interval: it reads the probe and scales the
    interval by ``PROBE_REFERENCE_S`` over the mean of the readings at
    its two ends.  Time spent reading the probe is in neither total.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.reading = probe.read()
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def restart(self) -> None:
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def split(self) -> None:
        seconds = time.perf_counter() - self.mark
        reading = self.probe.read()
        self.wall += seconds
        self.scaled += seconds * 2.0 * PROBE_REFERENCE_S / (self.reading + reading)
        self.reading = reading
        self.mark = time.perf_counter()


@contextlib.contextmanager
def split_at(sites, split: Callable[[], None]) -> Iterator[None]:
    """Call ``split`` before every call made through the lookup sites."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in sites]
    for owner, attr, original in saved:
        def wrapper(*args, _original=original, **kwargs):
            split()
            return _original(*args, **kwargs)

        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--deadline", type=float, default=150.0,
                        help="start no pass that would end later than this")
    parser.add_argument("--git-sha", default="unknown")
    return parser.parse_args(argv)


class Passes:
    """Runs passes over a workload's cells and checks every row."""

    def __init__(self, workload, expected: Dict[str, dict], clock: ScaledClock) -> None:
        self.workload = workload
        self.cells = workload.cells()
        self.expected = expected
        self.clock = clock
        self.first: Dict[str, str] = {}
        self.rows: Dict[str, dict] = {}
        self.attempted = 0
        self.problems: Dict[str, List[str]] = {}
        self.failed = 0
        #: Per cell, one entry per pass: scaled seconds, and wall seconds.
        self.scaled: Dict[str, List[float]] = {}
        self.wall: Dict[str, List[float]] = {}

    def run(self, tracer=None) -> float:
        """One pass; returns the wall seconds its cells took."""
        rows: Dict[str, dict] = {}
        raised: Dict[str, List[str]] = {}
        clock = self.clock
        total = 0.0
        for cell in self.cells:
            if tracer is not None:
                tracer.cell = cell.model
            clock.restart()
            try:
                rows[cell.key] = cell.run()
            except Exception:  # a failing cell counts against fail_frac
                raised[cell.key] = [traceback.format_exc(limit=8)]
            clock.split()
            self.scaled.setdefault(cell.key, []).append(clock.scaled)
            self.wall.setdefault(cell.key, []).append(clock.wall)
            total += clock.wall

        failed = dict(raised)
        for key, row in rows.items():
            problems = self.workload.check(key, row, self.expected.get(key))
            encoded = json.dumps(row, sort_keys=True)
            if self.first.setdefault(key, encoded) != encoded:
                problems.append("differs from this run's first pass")
            self.rows.setdefault(key, row)
            if problems:
                failed[key] = problems
        self.attempted += len(self.cells)
        self.failed += len(failed)
        for key, problems in failed.items():
            self.problems.setdefault(key, problems)
        return total

    @staticmethod
    def median_pass(times: Dict[str, List[float]]) -> float:
        """A pass's seconds, taken cell by cell as the median over passes,
        so a burst of host noise in one cell of one pass drops out."""
        return sum(statistics.median(cell) for cell in times.values())

    def digest(self) -> str:
        """sha256 of every cell's first-pass row, in cell order."""
        ordered = [[cell.key, self.first.get(cell.key)] for cell in self.cells]
        return hashlib.sha256(json.dumps(ordered).encode()).hexdigest()

    @property
    def demand_lines(self) -> int:
        return sum(
            row["sim"]["demand_reads"] + row["sim"]["demand_writes"]
            for row in self.rows.values()
        )


def _layer_metrics(workload, passes: Passes, setup_totals, run_totals,
                   untraced_s: float, traced_s: float) -> Dict[str, float]:
    from workloads import CACHE_MODELS, model_hit_rates

    setup_self = setup_totals[0]
    run_self, calls, raised, counts = run_totals

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hit_rates = model_hit_rates(passes.cells, passes.rows)
    metrics = {
        "traces.generate_s": setup_self.get("traces.generate", 0.0),
        "traces.replay_self_s": run_self.get("traces.replay", 0.0),
        "traces.lines": workload.trace_lines,
    }
    for model in CACHE_MODELS:
        metrics[f"cache.{model}.read_s"] = run_self.get(f"cache.{model}.read", 0.0)
        metrics[f"cache.{model}.write_s"] = run_self.get(f"cache.{model}.write", 0.0)
        metrics[f"cache.{model}.hit_rate"] = hit_rates.get(model, 0.0)
    metrics.update({
        "cache.segment_s": run_self.get("cache.segment", 0.0),
        "cache.segment_calls": calls["cache.segment"],
        "cache.probe_skip_ratio": ratio(counts["probe.skips"], counts["probe.calls"]),
        "cache.segment_reuse_ratio": (
            1.0 - ratio(counts["perf.segments.segment"], calls["cache.segment"])
            if calls["cache.segment"] else 0.0
        ),
        "cache.setassoc_lru.rank_rounds": counts["cache.setassoc_lru.rank_rounds"],
        "perf.argsort_s": run_self.get("perf.argsort", 0.0),
        "perf.argsort_calls": calls["perf.argsort"],
        "memsys.access_calls": calls["memsys.access"],
        "memsys.lines_per_call": ratio(counts["memsys.lines"], calls["memsys.access"]),
        "memsys.access_self_s": run_self.get("memsys.access", 0.0),
        "memsys.timing_s": run_self.get("memsys.timing", 0.0),
        "memsys.sim_s": sum(row["sim"]["sim_s"] for row in passes.rows.values()),
        "nn.plan_s": setup_self.get("nn.plan", 0.0),
        "nn.execute_self_s": run_self.get("nn.execute", 0.0),
        "nn.kernels": counts["nn.kernels"],
        "autotm.build_s": run_self.get("autotm.build", 0.0),
        "autotm.ilp_s": run_self.get("autotm.ilp", 0.0),
        "autotm.ilp_fallbacks": counts["autotm.greedy"],
        "autotm.budget_retries": raised["autotm.execute"],
        "autotm.execute_self_s": run_self.get("autotm.execute", 0.0),
        "traced_run_s": traced_s,
        # Every second of the traced pass is either some span's self
        # time or this remainder (unwrapped code inside the cells).
        "unattributed_s": traced_s - sum(run_self.values()),
        "trace_overhead": traced_s / untraced_s - 1.0,
    })
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    try:
        import repro
        import scipy
        import workloads
        from tracer import Tracer
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {SRC}: {error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            workload.setup()
        setup_totals = tracer.take()
    else:
        workload.setup()
    print("ready", flush=True)
    probe = SpeedProbe()
    setup_scale = PROBE_REFERENCE_S / probe.read()
    if args.role == "setup":
        print(f"scale {setup_scale!r}", flush=True)
        os._exit(0)  # skip interpreter teardown: it is not set-up time

    expected = json.loads(args.expected.read_text())[workload.name]["cells"]
    passes = Passes(workload, expected, ScaledClock(probe))
    started = time.perf_counter()
    out: Dict[str, object] = {}
    if tracer is None:
        times: List[float] = []
        with split_at(workload.split_sites, passes.clock.split):
            while True:
                times.append(passes.run())
                elapsed = time.perf_counter() - started
                next_end = elapsed * (len(times) + 1) / len(times)
                if next_end > args.deadline:
                    break
                if len(times) >= MIN_PASSES and next_end > args.seconds:
                    break
        out["passes"] = times
        out["run_s"] = passes.median_pass(passes.scaled)
        out["wall_run_s"] = passes.median_pass(passes.wall)
    else:
        untraced_s = passes.run()
        with tracer.installed():
            traced_s = passes.run(tracer)
        out["layers"] = _layer_metrics(
            workload, passes, setup_totals, tracer.take(), untraced_s, traced_s
        )
        out["passes"] = [untraced_s]

    out.update(
        attempted=passes.attempted,
        failed=passes.failed,
        problems=dict(list(passes.problems.items())[:10]),
        digest=passes.digest(),
        demand_lines=passes.demand_lines,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        setup_scale=setup_scale,
        host_speed=PROBE_REFERENCE_S / statistics.median(probe.readings),
        provenance={
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_sha": args.git_sha,
            "workload": workload.name,
            "seed": args.seed,
            "size": args.size,
        },
    )
    if tracer is not None:
        spans = tracer.save(
            OUT / f"spans-{workload.name}-seed{args.seed}.npz",
            {"provenance": out["provenance"], "layers": out["layers"]},
        )
        out["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
