"""Tests for the experiment CLI."""

import pytest

from repro.exec import fork_available
from repro.experiments import check, cli, registry
from repro.experiments.check import Claim
from repro.experiments.cli import main


class TestCLI:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "table2" in out

    def test_run_one_quick(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "completed in" in out

    def test_unknown_name_errors(self, capsys):
        # argparse contract: exit code 2 and the registered names in the
        # error message, so a typo is self-correcting.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        for name in ("fig2", "table1", "table2", "dlrm", "gpt", "check"):
            assert name in err
        assert "'serve'" in err

    @pytest.mark.parametrize("bound, code", [(1, 0), (0, 1)])
    def test_check_exit_status_follows_the_claims(self, monkeypatch, capsys, bound, code):
        # One table1 row that holds (matches_paper == 1) or cannot (== 0).
        monkeypatch.setattr(check, "CLAIMS", [Claim("table1", "matches_paper", "==", bound, "")])
        assert main(["check", "--quick"]) == code
        assert f"{1 - code}/1 claims hold" in capsys.readouterr().out

    def test_all_runs_each_experiment_once(self, monkeypatch, capsys):
        # check runs last under 'all' and judges the table1 result 'all'
        # already has, instead of running table1 a second time.
        monkeypatch.setattr(check, "CLAIMS", [Claim("table1", "matches_paper", "==", 1, "")])
        monkeypatch.setattr(cli, "registered_names", lambda: ["check", "table1"])
        calls = []

        def spy(name, *args, _real=registry.run_experiment, **kwargs):
            calls.append(name)
            return _real(name, *args, **kwargs)

        monkeypatch.setattr(registry, "run_experiment", spy)
        monkeypatch.setattr(cli, "run_experiment", spy)
        assert main(["all", "--quick"]) == 0
        assert calls.count("table1") == 1
        out = capsys.readouterr().out
        assert "1/1 claims hold" in out
        assert out.index("=== check:") < out.index("=== table1:")  # printed in name order

    def test_all_loads_the_solver_before_its_pool_forks(self, monkeypatch, capsys):
        # Workers then inherit scipy and every experiment module, so no
        # worker's first solve or import delays it and shifts which
        # worker the next experiment goes to.
        order = []
        monkeypatch.setattr(cli, "registered_names", lambda: ["fig2", "table1"])
        monkeypatch.setattr(cli, "load_all", lambda: order.append("experiments"))
        monkeypatch.setattr(cli, "release_threads", lambda: order.append("solver"))

        def in_process(spec, jobs, _real=cli.run_sweep):
            order.append(f"pool of {jobs}")
            return _real(spec, jobs=1)

        monkeypatch.setattr(cli, "run_sweep", in_process)
        assert main(["all", "--quick", "--jobs", "2"]) == 0
        assert order == ["experiments", "solver", "pool of 2"]

    def test_metrics_file_is_written(self, tmp_path, capsys):
        path = tmp_path / "deep" / "m.prom"
        assert main(["table1", "--quick", "--metrics", str(path)]) == 0
        assert "# TYPE repro_" in path.read_text()
        assert f"[metrics -> {path}]" in capsys.readouterr().out

    def test_bad_jobs_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--jobs", "0"])

    @pytest.mark.parametrize(
        "flag, value",
        [("--port", "70000"), ("--port", "-5"), ("--workers", "0"), ("--queue-capacity", "0")],
    )
    def test_bad_serve_bounds_error_before_the_store_exists(self, tmp_path, capsys, flag, value):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--store", str(store), flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_jobs_flag_runs_sweep_experiments(self, capsys):
        assert main(["fig2", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "completed in" in out

    def test_store_serves_second_run_from_disk(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["table1", "--quick", "--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert "(served from store)" not in first
        assert store.is_dir()

        assert main(["table1", "--quick", "--store", str(store)]) == 0
        second = capsys.readouterr().out
        assert "(served from store)" in second
        # The cached run still renders the full table.
        assert "Table I" in second
