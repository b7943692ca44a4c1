"""Report rendering: content, paper deltas, and byte-stability."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.report import render, svg
from repro.report.bench import load_bench_history
from repro.report.render import render_experiment, render_index
from repro.service import catalog as catalog_module
from repro.service.catalog import Catalog
from repro.service.store import RequestSpec, ResultStore

SALT = "3" * 16
SHA = "c" * 40


def put_run(store, name, data, *, clock, params=None, quick=False, salt=SALT):
    store._clock = lambda: clock
    spec = RequestSpec.build(name, params=params, quick=quick, salt=salt)
    result = ExperimentResult(name=name, title=f"{name} stub")
    result.data = data
    store.put(spec, result, meta={"git_sha": SHA})


@pytest.fixture
def catalog(tmp_path):
    store = ResultStore(tmp_path / "store", clock=lambda: 0.0)
    # fig2 has paper baselines registered, so its page gets delta rows.
    put_run(store, "fig2", {"peak_read": 30.0, "peak_write": 10.5}, clock=100.0)
    put_run(
        store, "fig2", {"peak_read": 32.0, "peak_write": 11.2},
        clock=200.0, params={"tune": 1},
    )
    put_run(store, "custom", {"speed": 4.0}, clock=150.0)
    return Catalog(store)


class TestRenderExperiment:
    def test_page_contains_chart_deltas_and_runs(self, catalog):
        html = render_experiment(catalog, "fig2")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html  # headline bar chart, inline
        assert "Paper vs repro" in html
        assert "peak_read" in html and "peak_write" in html
        assert "Stored runs" in html
        assert SHA[:10] in html
        # Two runs with different headline values -> trajectory section.
        assert "Trajectory across stored runs" in html
        assert "<polyline" in html

    def test_paper_delta_marks_within_tolerance(self, catalog):
        html = render_experiment(catalog, "fig2")
        # 32.0 vs the paper's 31.0 is ~+3.2%: within the 15% band.
        assert "delta-ok" in html

    def test_experiment_without_runs_returns_none(self, catalog):
        assert render_experiment(catalog, "nope") is None

    def test_experiment_without_baselines_skips_delta_section(self, catalog):
        html = render_experiment(catalog, "custom")
        assert html is not None
        assert "Paper vs repro" not in html
        assert "speed" in html

    def test_byte_stable_across_renders_and_catalog_instances(self, catalog):
        first = render_experiment(catalog, "fig2")
        second = render_experiment(catalog, "fig2")
        assert first == second
        # A fresh Catalog over the reopened store renders identical bytes.
        catalog.store.flush()
        reopened = Catalog(ResultStore(catalog.store.root))
        assert render_experiment(reopened, "fig2") == first

    def test_params_are_hashed_at_most_once_per_run_per_page(self, catalog, monkeypatch):
        """The trajectory section charts every headline metric from one
        pass over the runs, not one catalog query per metric."""
        calls = []
        real = catalog_module.params_hash

        def spy(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(catalog_module, "params_hash", spy)
        for experiment, runs in (("fig2", 2), ("custom", 1)):
            calls.clear()
            assert render_experiment(Catalog(catalog.store), experiment) is not None
            assert len(calls) <= runs, experiment
        calls.clear()
        render_index(Catalog(catalog.store))
        assert len(calls) <= len(catalog)

    def test_trajectory_rows_keep_each_metrics_runs_in_order(self, tmp_path):
        """Runs that report different metrics, two at one timestamp: each
        metric's row charts exactly the runs ``trajectory`` gives it."""
        store = ResultStore(tmp_path / "store", clock=lambda: 0.0)
        put_run(store, "custom", {"a": 1.0}, clock=100.0)
        put_run(store, "custom", {"a": 3.0, "b": 7.0}, clock=100.0, params={"x": 1})
        put_run(store, "custom", {"b": 2.0, "c": 5.0}, clock=50.0, params={"x": 2})
        catalog = Catalog(store)
        headlines = [p["value"] for p in catalog.trajectory("custom")]
        assert headlines[0] == {"b": 2.0, "c": 5.0}  # the clock-50 run is oldest
        rows = []
        for metric in ("a", "b", "c"):
            values = [h[metric] for h in headlines if metric in h]
            rows.append(
                [
                    metric,
                    svg.sparkline(values),
                    svg.fmt(values[-1]),
                    svg.fmt(max(values) - min(values)),
                    str(len(values)),
                ]
            )
        section = render._trajectory_section(catalog, "custom")
        assert section[2] == render.table(
            ["metric", "trajectory", "latest", "spread", "runs"], rows, numeric=(2, 3, 4)
        )


class TestRenderIndex:
    def test_index_links_every_experiment(self, catalog):
        html = render_index(catalog)
        assert '<a href="fig2.html">fig2</a>' in html
        assert '<a href="custom.html">custom</a>' in html
        assert "3 stored runs" in html

    def test_empty_catalog_renders_a_friendly_index(self, tmp_path):
        store = ResultStore(tmp_path / "empty", clock=lambda: 0.0)
        html = render_index(Catalog(store))
        assert "store is empty" in html

    def test_byte_stable(self, catalog):
        assert render_index(catalog) == render_index(catalog)


class TestBenchIntegration:
    def test_bench_history_becomes_sparklines(self, catalog, tmp_path):
        for stamp, seconds in ((1000, 4.0), (2000, 3.0), (3000, 3.5)):
            (tmp_path / f"BENCH_{stamp}.json").write_text(
                '{"experiments": {"fig2": %s}, '
                '"meta": {"unix_time": %d, "git_sha": "%s"}}'
                % (seconds, stamp, "d" * 40)
            )
        history = load_bench_history(sorted(tmp_path.glob("BENCH_*.json")))
        assert len(history) == 3
        assert history.series("fig2") == [4.0, 3.0, 3.5]

        html = render_experiment(catalog, "fig2", bench=history)
        assert "Perf trajectory (BENCH files)" in html
        index = render_index(catalog, bench=history)
        assert "Bench history: 3 snapshots" in index

    def test_cache_bench_series_sparkline_on_the_index(self, catalog, tmp_path):
        # BENCH_cache.json-style nested snapshots: series named a/b,
        # no "experiments" key, ordering by filename (no unix_time).
        for stamp, speedup in ((1000, 3.5), (2000, 4.0)):
            (tmp_path / f"BENCH_cache_{stamp}.json").write_text(
                '{"direct_mapped/uniform": {"speedup": %s, '
                '"closed_form_s": 0.02}}' % speedup
            )
        history = load_bench_history(sorted(tmp_path.glob("BENCH_cache_*.json")))
        assert history.series("direct_mapped/uniform/speedup") == [3.5, 4.0]

        index = render_index(catalog, bench=history)
        assert "Perf trajectory (BENCH files)" in index
        assert "direct_mapped/uniform/speedup" in index
        assert render_index(catalog, bench=history) == index

    def test_single_snapshot_renders_no_series_section(self, catalog, tmp_path):
        (tmp_path / "BENCH_cache.json").write_text(
            '{"direct_mapped/uniform": {"speedup": 4.0}}'
        )
        history = load_bench_history([tmp_path / "BENCH_cache.json"])
        index = render_index(catalog, bench=history)
        assert "Perf trajectory (BENCH files)" not in index
        assert "Bench history: 1 snapshot" in index
