"""The gate the CI runs: the simulator's own tree must lint clean."""

from pathlib import Path

from repro.analysis import render_json, run_analysis

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestSelfClean:
    def test_src_repro_has_zero_findings(self):
        report = run_analysis([REPO_SRC])
        assert report.files >= 100
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )

    def test_suppressions_are_only_declared_boundaries(self):
        report = run_analysis([REPO_SRC])
        # Host-clock reads in the span tracer, plus the sweep-worker and
        # service-worker crash barriers — nothing else may hide behind a
        # disable.
        assert {finding.rule for finding in report.suppressed} == {
            "DET001",
            "EXC001",
        }
        assert len(report.suppressed) == 7

    def test_json_report_is_deterministic(self):
        first = render_json(run_analysis([REPO_SRC]))
        second = render_json(run_analysis([REPO_SRC]))
        assert first == second
