"""``repro-report`` CLI: bundle layout and the byte-stability gate."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.report.cli import main
from repro.service.store import RequestSpec, ResultStore


def build_store(root):
    store = ResultStore(root, clock=lambda: 100.0)
    for name, data in (
        ("fig2", {"peak_read": 31.5, "peak_write": 11.1}),
        ("custom", {"speed": 2.0}),
    ):
        spec = RequestSpec.build(name, quick=True, salt="4" * 16)
        result = ExperimentResult(name=name, title=f"{name} stub")
        result.data = data
        store.put(spec, result, meta={"git_sha": "e" * 40})
    store.flush()
    return store


def read_bundle(out_dir):
    return {
        path.name: path.read_bytes() for path in sorted(out_dir.glob("*.html"))
    }


class TestReportCli:
    def test_renders_index_plus_page_per_experiment(self, tmp_path, capsys):
        build_store(tmp_path / "store")
        out = tmp_path / "report"
        assert main(["--store", str(tmp_path / "store"), "--out", str(out)]) == 0
        bundle = read_bundle(out)
        assert set(bundle) == {"index.html", "fig2.html", "custom.html"}
        assert b"<svg" in bundle["fig2.html"]
        assert b'href="fig2.html"' in bundle["index.html"]
        stdout = capsys.readouterr().out
        assert "[catalog: 2 rows <- " in stdout
        assert "[report ->" in stdout

    def test_second_render_is_byte_identical(self, tmp_path):
        """The CI gate: an unchanged store renders unchanged bytes."""
        build_store(tmp_path / "store")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["--store", str(tmp_path / "store"), "--out", str(out1)])
        main(["--store", str(tmp_path / "store"), "--out", str(out2)])
        assert read_bundle(out1) == read_bundle(out2)

    def test_single_experiment_selection(self, tmp_path):
        build_store(tmp_path / "store")
        out = tmp_path / "report"
        main(
            [
                "--store", str(tmp_path / "store"),
                "--out", str(out),
                "--experiment", "fig2",
            ]
        )
        assert set(read_bundle(out)) == {"index.html", "fig2.html"}

    def test_unknown_experiment_is_an_argparse_error(self, tmp_path):
        build_store(tmp_path / "store")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "--store", str(tmp_path / "store"),
                    "--out", str(tmp_path / "report"),
                    "--experiment", "nope",
                ]
            )
        assert excinfo.value.code == 2

    def test_missing_store_directory_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", str(tmp_path / "missing")])
        assert excinfo.value.code == 2

    def test_deleted_index_renders_the_same_bundle(self, tmp_path, capsys):
        """The payloads alone reproduce the report (CI runs this too)."""
        store = build_store(tmp_path / "store")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["--store", str(tmp_path / "store"), "--out", str(out1)])
        store.index_path.unlink()
        capsys.readouterr()
        main(["--store", str(tmp_path / "store"), "--out", str(out2)])
        assert "[catalog: 2 rows <- " in capsys.readouterr().out
        assert read_bundle(out2) == read_bundle(out1)
        assert store.index_path.is_file()
