"""Tests for the experiment CLI."""

import pytest

from repro.exec import fork_available
from repro.experiments import check
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

    def test_bad_jobs_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--jobs", "0"])

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
