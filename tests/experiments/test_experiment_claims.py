"""Integration tests: each experiment must reproduce the paper's claims.

One case per row of :data:`repro.experiments.check.CLAIMS`, judged on
quick runs that the whole session shares, so no experiment runs twice.
EXPERIMENTS.md records the full-size numbers.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.experiments.check import CLAIMS, evaluate, headlines


@pytest.fixture(scope="session")
def quick_headlines():
    return headlines(quick=True)


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"{claim.experiment}-{claim.metric}" for claim in CLAIMS]
)
def test_claim(claim, quick_headlines):
    (verdict,) = evaluate([claim], quick_headlines)
    assert verdict.ok, f"{claim} ({claim.citation}): got {verdict.value}"


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "DESIGN.md", "README.md"])
def test_docs_count_the_claim_table(doc):
    text = (Path(__file__).resolve().parents[2] / doc).read_text()
    counts = re.findall(r"(\d+) declared shape claims", text)
    assert counts and all(int(count) == len(CLAIMS) for count in counts)


class TestRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments import EXPERIMENTS

        expected = {
            "fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "table2", "ablation", "dma", "mix", "dlrm", "check", "gpt",
            "kvtrace",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        from repro.experiments import get_experiment

        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_render_includes_title(self):
        assert "fig2" in run_experiment("fig2", quick=True).render()
