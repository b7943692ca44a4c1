"""CLI exit codes, reporters, and the injection gate."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", "X = 1\n")
        assert main([str(path)]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        path = write(
            tmp_path, "sim.py", "import time\n\n\ndef f():\n    return time.time()\n"
        )
        assert main([str(path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "sim.py:5:" in out

    def test_unreadable_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "broken.py", "def f(:\n")
        assert main([str(path)]) == EXIT_ERROR
        assert "cannot parse" in capsys.readouterr().err

    def test_no_paths_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ("DET001", "UNIT001", "TEL001", "EXC001", "REG001"):
            assert rule in out


class TestJsonReporter:
    def test_round_trip_and_byte_stability(self, tmp_path, capsys):
        write(
            tmp_path, "sim.py", "import time\n\n\ndef f():\n    return time.time()\n"
        )
        write(tmp_path, "platform.py", "CAP = 1024 ** 3\n")

        assert main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        first = capsys.readouterr().out
        assert main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        second = capsys.readouterr().out
        assert first == second  # byte-identical across consecutive runs

        payload = json.loads(first)
        assert payload["summary"]["findings"] == 2
        assert payload["summary"]["files"] == 2
        assert {entry["rule"] for entry in payload["findings"]} == {
            "DET001",
            "UNIT001",
        }
        for entry in payload["findings"]:
            assert set(entry) == {"path", "line", "col", "rule", "message"}

    def test_findings_sorted_by_location(self, tmp_path, capsys):
        write(
            tmp_path,
            "zz.py",
            "import time\n\n\ndef f():\n    return time.time()\n",
        )
        write(tmp_path, "aa.py", "CAP = 1024 ** 3\n")
        main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        locations = [(e["path"], e["line"], e["col"]) for e in payload["findings"]]
        assert locations == sorted(locations)


class TestInjectionGate:
    """The acceptance probe: a wall-clock read planted in real model code
    must be caught at the exact file and line."""

    def test_det001_injected_into_cache_model(self, tmp_path, capsys):
        source = (REPO_SRC / "cache" / "direct_mapped.py").read_text()
        original_lines = source.count("\n")
        injected = source + (
            "\n\nimport time\n\n\ndef _leak_wall_clock():\n    return time.time()\n"
        )
        target = write(tmp_path, "direct_mapped.py", injected)
        leak_line = original_lines + 7

        assert main([str(target)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "DET001" in out
        assert f"direct_mapped.py:{leak_line}:" in out
