"""Tests for the JSON export of experiment results."""

import json

import numpy as np
import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment
from repro.perf.counters import TagStats, Traffic
from repro.perf.export import export_result, to_jsonable


class TestToJsonable:
    def test_scalars_pass_through(self):
        assert to_jsonable(5) == 5
        assert to_jsonable(1.5) == 1.5
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True

    def test_numpy_values(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float32(0.5)) == pytest.approx(0.5)
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_traffic_dataclass(self):
        data = to_jsonable(Traffic(dram_reads=7, demand_reads=7))
        assert data["dram_reads"] == 7
        json.dumps(data)  # round-trips

    def test_tag_stats(self):
        data = to_jsonable(TagStats(hits=1, ddo_writes=2))
        assert data["ddo_writes"] == 2

    def test_nested_and_tuple_keys(self):
        payload = {("sequential", 64, 8): np.float64(31.8)}
        data = to_jsonable(payload)
        assert data["sequential/64/8"] == pytest.approx(31.8)

    def test_everything_json_serializable(self):
        result = run_experiment("table1", quick=True)
        json.dumps(to_jsonable(result.data))

    def test_numeric_array_fast_path(self):
        # bool/int/uint/float arrays convert via one tolist() call; the
        # result must be plain Python scalars, JSON-ready.
        for array in (
            np.arange(5, dtype=np.int64),
            np.linspace(0.0, 1.0, 4, dtype=np.float32),
            np.array([True, False]),
            np.arange(3, dtype=np.uint16),
        ):
            converted = to_jsonable(array)
            assert converted == array.tolist()
            json.dumps(converted)

    def test_numeric_fast_path_handles_2d(self):
        array = np.arange(6, dtype=np.int32).reshape(2, 3)
        assert to_jsonable(array) == [[0, 1, 2], [3, 4, 5]]

    def test_object_arrays_still_recurse(self):
        from repro.perf.counters import Pattern

        array = np.array([Pattern.RANDOM, Pattern.SEQUENTIAL], dtype=object)
        assert to_jsonable(array) == ["random", "sequential"]

    def test_fast_path_is_not_slower_per_element(self):
        # 100k-element export stays well under a second via tolist().
        import time

        array = np.arange(100_000, dtype=np.float64)
        # A wall-clock bound is this test's subject.
        start = time.perf_counter()  # repro-lint: disable=DET001
        json.dumps(to_jsonable(array))
        assert time.perf_counter() - start < 1.0  # repro-lint: disable=DET001


class TestExportResult:
    def test_writes_valid_json(self, tmp_path):
        result = ExperimentResult(
            name="demo", title="Demo", data={"x": np.array([1.0, 2.0])}
        )
        result.add("a section")
        path = export_result(result, tmp_path / "demo.json")
        payload = json.loads(path.read_text())
        assert payload["name"] == "demo"
        assert payload["data"]["x"] == [1.0, 2.0]
        assert "a section" in payload["rendering"]

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["table1", "--quick", "--json", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["data"]["matches_paper"] is True
