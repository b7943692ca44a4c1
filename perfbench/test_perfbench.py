"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Most tests run ``run.py`` as the benchmark's users do, on the tiny cell
sets (about a minute in all); the last two check the worker's host-speed
scaling on its own.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, seed: int = 7) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["kv_replay", "cnn_2lm", "cnn_autotm"])
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    lines, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for entry in SPEC["end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        assert any(line.split()[1:2] == [name] and line.endswith(f" {unit}")
                   for line in lines), name
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert any(line.split()[1:2] == ["fail_frac"] for line in lines)


def test_corrupted_expected_value_fails_the_cell(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    cells = expected["cnn_2lm"]["cells"]
    cells["8-way LRU"]["hit_rate"] += 1e-9
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    lines, result = bench("cnn_2lm", 0, "--expected", str(corrupted))
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]
    assert any("FAILED 8-way LRU" in line for line in lines)


def test_two_traced_runs_give_identical_counts():
    # Counts, ratios of counts and modelled statistics; not host times.
    counted = [
        entry["name"] for entry in SPEC["per_layer"]
        if entry["unit"] != "s" and entry["name"] != "trace_overhead"
    ] + ["memsys.sim_s"]
    runs = [bench("kv_replay", 1, seed=11) for _ in range(2)]
    first, second = ({name: result["metrics"][name]["value"] for name in counted}
                     for _, result in runs)
    assert first == second
    assert first["cache.segment_calls"] > 0 and first["perf.argsort_calls"] > 0
    assert first["cache.setassoc_lru.rank_rounds"] > 0
    digests = [next(line for line in lines if " digest " in line) for lines, _ in runs]
    assert digests[0].split("digest")[1] == digests[1].split("digest")[1]


def test_traced_self_times_sum_to_the_traced_pass():
    _, result = bench("cnn_autotm", 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = [
        value for name, value in metrics.items()
        if name.endswith("_s") and name not in (
            "traced_run_s", "traces.generate_s", "nn.plan_s", "memsys.sim_s")
    ]
    assert metrics["unattributed_s"] >= 0
    assert sum(self_times) == pytest.approx(metrics["traced_run_s"], rel=1e-9)
    assert metrics["autotm.ilp_s"] > 0 and metrics["autotm.execute_self_s"] > 0
    assert metrics["cache.direct_mapped.read_s"] == 0  # no cache model runs


def test_scaled_clock_scales_each_interval_by_the_readings_around_it(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(worker.time, "perf_counter", lambda: now[0])
    readings = iter([1.0, 2.0, 4.0])  # in units of PROBE_REFERENCE_S

    class Probe:
        def read(self):
            return next(readings) * worker.PROBE_REFERENCE_S

    clock = worker.ScaledClock(Probe())
    clock.restart()
    now[0] += 3.0
    clock.split()  # 3 s between readings 1 and 2: 2 s at the reference speed
    now[0] += 6.0
    clock.split()  # 6 s between readings 2 and 4: 2 s at the reference speed
    assert clock.wall == pytest.approx(9.0)
    assert clock.scaled == pytest.approx(4.0)


def test_split_at_splits_before_each_call_and_restores_the_site():
    site = types.SimpleNamespace(step=lambda x: x + 1)
    original = site.step
    splits = []
    with worker.split_at([(site, "step")], lambda: splits.append(len(splits))):
        assert site.step(1) == 2 and site.step(2) == 3
    assert splits == [0, 1]
    assert site.step is original
