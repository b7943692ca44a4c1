"""CLI coverage for the whole-program additions.

--graph dot (byte-stable, matches the committed docs), --changed-only
(git-aware filtering with a full-tree fallback), and JSON rendering of
the project-level ARC/LOCK rules.
"""

import json
import subprocess
import textwrap
from pathlib import Path

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, main

REPO = Path(__file__).resolve().parents[2]

ARC_AND_LOCK_TREE = {
    "repro/perf/bad.py": "import repro.cache.model\n",
    "repro/service/pool.py": """\
    import threading


    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._jobs = []

        def start(self):
            threading.Thread(target=self._loop).start()

        def _loop(self):
            while True:
                pass

        def push(self, job):
            self._jobs.append(job)

        def drain(self):
            return list(self._jobs)
    """,
}


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
        path.write_text(textwrap.dedent(source))


class TestGraphDot:
    def test_output_is_byte_stable_across_runs(self, tmp_path, capsys):
        write_tree(tmp_path, ARC_AND_LOCK_TREE)
        assert main([str(tmp_path), "--graph", "dot"]) == EXIT_CLEAN
        first = capsys.readouterr().out
        assert main([str(tmp_path), "--graph", "dot"]) == EXIT_CLEAN
        second = capsys.readouterr().out
        assert first == second
        assert '"perf" -> "cache";' in first
        assert "digraph repro_layers" in first

    def test_committed_docs_match_the_generated_graph(self, capsys):
        # Regenerate with: PYTHONPATH=src python -m repro.analysis \
        #   src/repro --graph dot > docs/import-graph.dot
        assert main([str(REPO / "src" / "repro"), "--graph", "dot"]) == EXIT_CLEAN
        generated = capsys.readouterr().out
        committed = (REPO / "docs" / "import-graph.dot").read_text()
        assert generated == committed


class TestChangedOnly:
    def git(self, *args, cwd):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=cwd,
            check=True,
            capture_output=True,
            text=True,
        )

    def test_reports_only_changed_files(self, tmp_path, monkeypatch, capsys):
        noisy = "import time\n\n\ndef f():\n    return time.time()\n"
        (tmp_path / "committed.py").write_text(noisy)
        self.git("init", "-q", cwd=tmp_path)
        self.git("add", "committed.py", cwd=tmp_path)
        self.git("commit", "-qm", "seed", cwd=tmp_path)
        (tmp_path / "fresh.py").write_text(noisy)
        monkeypatch.chdir(tmp_path)

        assert main(["."]) == EXIT_FINDINGS
        full = capsys.readouterr().out
        assert "committed.py" in full and "fresh.py" in full

        assert main([".", "--changed-only"]) == EXIT_FINDINGS
        filtered = capsys.readouterr().out
        assert "fresh.py" in filtered
        assert "committed.py" not in filtered

    def test_clean_changed_set_exits_zero(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "committed.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        self.git("init", "-q", cwd=tmp_path)
        self.git("add", "committed.py", cwd=tmp_path)
        self.git("commit", "-qm", "seed", cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([".", "--changed-only"]) == EXIT_CLEAN

    def test_falls_back_to_full_tree_without_git(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "sim.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        monkeypatch.chdir(tmp_path)  # no .git anywhere up to /tmp
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert main([".", "--changed-only"]) == EXIT_FINDINGS
        captured = capsys.readouterr()
        assert "sim.py" in captured.out
        assert "git unavailable" in captured.err


class TestProjectRuleReporting:
    def test_arc_and_lock_findings_render_byte_stable_json(self, tmp_path, capsys):
        write_tree(tmp_path, ARC_AND_LOCK_TREE)
        assert main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        first = capsys.readouterr().out
        assert main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        rules = {finding["rule"] for finding in payload["findings"]}
        assert {"ARC001", "LOCK001"} <= rules
        locations = [(f["path"], f["line"], f["col"]) for f in payload["findings"]]
        assert locations == sorted(locations)
