"""Integration tests: each experiment must reproduce the paper's claims.

One case per row of :data:`repro.experiments.check.CLAIMS`, judged on
quick runs that the whole session shares, so no experiment runs twice.
EXPERIMENTS.md records the full-size numbers.
"""

import re
from pathlib import Path

import pytest

from repro.autotm import ilp
from repro.experiments import check, table2
from repro.experiments.registry import run_experiment
from repro.experiments.check import CLAIMS, RELATIONS, Claim, evaluate, headlines


@pytest.fixture(scope="session")
def quick_headlines():
    return headlines(quick=True)


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"{claim.experiment}-{claim.metric}" for claim in CLAIMS]
)
def test_claim(claim, quick_headlines):
    (verdict,) = evaluate([claim], quick_headlines)
    assert verdict.ok, f"{claim} ({claim.citation}): got {verdict.value}"


@pytest.mark.parametrize("network", table2.NETWORKS)
def test_table2_plans_are_ilp_plans_within_the_gap(network, quick_headlines):
    # A greedy fallback records no gap, so the key would be missing.
    assert 0 <= quick_headlines("table2")[f"{network}_mip_gap"] <= ilp.MIP_REL_GAP


class TestSlack:
    @pytest.mark.parametrize("relation", sorted(RELATIONS))
    def test_slack_is_negative_exactly_on_fail_rows(self, relation):
        intervals = relation.startswith("in")
        for bound in [(-2.0, 3.0), (0.5, 4.0)] if intervals else [-4.0, 0.0, 2.5]:
            for value in (-5.0, -4.0, -2.0, -0.5, 0.0, 0.5, 2.5, 3.0, 4.0, 7.0):
                claim = Claim("x", "m", relation, bound, "")
                (verdict,) = evaluate([claim], lambda _: {"m": value})
                if relation == "==":
                    assert verdict.slack is None
                elif verdict.slack == 0:  # on the bound: only the closed relations hold
                    assert verdict.ok == (relation in ("<=", ">=", "in[]"))
                else:
                    assert (verdict.slack < 0) == (not verdict.ok), (bound, value)

    @pytest.mark.parametrize(
        "relation, value, bound, expected",
        [
            (">=", 1.038, 1.0, 0.038),
            (">", 0.5, -2.0, 1.25),
            ("<", 0.3, 0.35, 1 / 7),
            ("<=", 3.0, 2.0, -0.5),
            (">", 0.25, 0.0, 0.25),
            ("<=", 0.25, 0.0, -0.25),
            ("in[]", 31.0, (30.0, 33.0), 1 / 3),
            ("in()", 34.5, (30.0, 33.0), -0.5),
        ],
    )
    def test_slack_is_relative_to_the_bound(self, relation, value, bound, expected):
        assert check.slack(relation, value, bound) == pytest.approx(expected)

    def test_check_prints_a_slack_column(self, monkeypatch):
        claims = [Claim("x", "m", ">=", "y.m", ""), Claim("x", "m", "==", 2.0, "")]
        monkeypatch.setattr(check, "CLAIMS", claims)
        table = check._check(lambda name: {"m": 2.0 if name == "x" else 1.6}).render()
        assert "slack" in table.splitlines()[2]
        assert [line.split()[-2] for line in table.splitlines()[4:6]] == ["+0.25", "-"]


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "DESIGN.md", "README.md"])
def test_docs_count_the_claim_table(doc):
    text = (Path(__file__).resolve().parents[2] / doc).read_text()
    counts = re.findall(r"(\d+) declared shape claims", text)
    assert counts and all(int(count) == len(CLAIMS) for count in counts)


class TestRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        expected = {
            "fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "table2", "ablation", "dma", "mix", "dlrm", "check", "gpt",
            "kvtrace",
        }
        assert expected == set(EXPERIMENTS)

    def test_every_experiment_is_claimed(self):
        from repro.experiments.registry import EXPERIMENTS

        assert {claim.experiment for claim in CLAIMS} == set(EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        from repro.experiments.registry import get_experiment

        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_render_includes_title(self):
        assert "fig2" in run_experiment("fig2", quick=True).render()
