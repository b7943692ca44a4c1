"""Host-time benchmark of the simulator: kv_replay, cnn_2lm, cnn_autotm.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv_replay --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 1

Each workload runs in a fresh interpreter (``worker.py``), serially,
with BLAS/OpenMP threads capped at the CPUs this process may use, so no
per-process memo can leak between workloads.  Times are host seconds at
a reference host speed (see ``worker.py``).  ``setup_s`` is the median
over several fresh interpreters of the time from spawn to inputs ready.
Every metric is printed by name with its unit (names and units come from
``BENCHMARK.json``); the last line of standard output is one JSON object.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("kv_replay", "cnn_2lm", "cnn_autotm")

#: Fresh interpreters timed per run for ``setup_s`` (the worker is one).
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload run, set-up samples included.
RUN_BUDGET_S = 170.0

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """A worker failed, timed out, or printed no result."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure whole passes until this many host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cells, for the benchmark's self-tests")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    return parser.parse_args(argv)


def _environment() -> Dict[str, str]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in _THREAD_VARS:
        current = env.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(cap)
    return env


def _git_sha() -> str:
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _spawn(args: List[str], env: Dict[str, str], timeout: float) -> Tuple[float, str]:
    """Run one worker; return (seconds from spawn to ``ready``, last stdout line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready_line.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {code} before finishing")
    return ready_s, (lines[-1] if lines else "")


def _setup_scale(line: str) -> float:
    """The speed scale a set-up worker prints after ``ready``."""
    label, _, value = line.partition(" ")
    if label != "scale":
        raise BenchError(f"set-up worker printed {line!r}, not its speed scale")
    return float(value)


def run_workload(name: str, args: argparse.Namespace, env: Dict[str, str],
                 git_sha: str) -> dict:
    """Set-up samples, then the measured (or traced) worker run."""
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    common = ["--workload", name, "--seed", str(args.seed), "--size", args.size]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, line = _spawn(["--role", "setup", *common], env, remaining())
            setups.append(ready_s * _setup_scale(line))
    ready_s, line = _spawn(
        [
            "--role", "run", *common,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expected", str(args.expected), "--git-sha", git_sha,
            "--deadline", str(max(remaining() - 15.0, 1.0)),
        ],
        env,
        remaining(),
    )
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        raise BenchError(f"{name}: worker printed no result") from None
    setups.append(ready_s * result["setup_scale"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def _metrics(result: dict, trace: int) -> Dict[str, float]:
    if trace:
        return dict(result["layers"])
    return {
        "run_s": result["run_s"],
        "sim_lines_per_s": result["demand_lines"] / result["run_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2

    env = _environment()
    git_sha = _git_sha()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            result = run_workload(name, args, env, git_sha)
        except BenchError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        metrics = _metrics(result, args.trace)
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"perfbench: {name} did not report {', '.join(missing)}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            value = metrics[metric]
            print(f"{name:<11} {metric:<34} {value:>16.6g} {unit}")
            out_metrics[prefix + metric] = {"value": value, "unit": unit}
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:<11} {'fail_frac':<34} {fail_frac:>16.6g} ratio "
              f"({result['failed']} of {result['attempted']} cells)")
        print(f"{name:<11} passes {', '.join(f'{s:.3f}' for s in result['passes'])} s wall, "
              f"setup samples {', '.join(f'{s:.3f}' for s in result['setup_samples'])} s, "
              f"digest {result['digest'][:16]}")
        if "wall_run_s" in result:
            print(f"{name:<11} wall-clock run_s {result['wall_run_s']:.4f} s, "
                  f"host speed {result['host_speed']:.3f} of the reference")
        for key, problems in result["problems"].items():
            print(f"{name:<11} FAILED {key}: {problems[0].strip()}")
        print(f"{name:<11} provenance {json.dumps(result['provenance'], sort_keys=True)}")
        if "spans" in result:
            print(f"{name:<11} spans written to {result['spans']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
