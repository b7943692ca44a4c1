"""Catalog queries: trajectories across commits, param diffs, and the
view staying current with the store it reads."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.service.catalog import Catalog, params_hash
from repro.service.store import RequestSpec, ResultStore

SHA_A = "a" * 40
SHA_B = "b" * 40
SALT_A = "1" * 16
SALT_B = "2" * 16


def make_result(name, metric):
    result = ExperimentResult(name=name, title=f"{name} stub")
    result.add("rendered")
    result.data = {"metric": metric, "nested": {"ignored": True}}
    return result


def put_run(store, name, metric, *, salt, sha, clock, params=None, quick=False):
    """One synthetic stored run attributed to (salt, sha) at `clock`."""
    store._clock = lambda: clock
    spec = RequestSpec.build(name, params=params, quick=quick, salt=salt)
    store.put(spec, make_result(name, metric), meta={"git_sha": sha})
    return spec.key


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store", clock=lambda: 0.0)


class TestEmptyAndUnknown:
    def test_empty_store_yields_empty_everything(self, store):
        catalog = Catalog(store)
        assert len(catalog) == 0
        assert catalog.experiments() == []
        assert catalog.rows() == []
        assert catalog.trajectory("fig2") == []
        assert catalog.param_diff("fig2") == {}
        assert catalog.metrics_for("fig2") == []

    def test_unknown_experiment_yields_empty_not_error(self, store):
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=100.0)
        catalog = Catalog(store)
        assert catalog.trajectory("nope") == []
        assert catalog.trajectory("nope", metric="metric") == []
        assert catalog.param_diff("nope") == {}
        assert catalog.rows(experiment="nope") == []


class TestTrajectory:
    def test_trajectory_spans_commits_and_salts(self, store):
        """The headline question: how did a metric move across commits?"""
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=100.0)
        put_run(store, "stub", 2.5, salt=SALT_B, sha=SHA_B, clock=200.0)
        catalog = Catalog(store)
        assert len(catalog) == 2

        points = catalog.trajectory("stub", metric="metric")
        assert [p["value"] for p in points] == [1.0, 2.5]  # oldest first
        assert [p["git_sha"] for p in points] == [SHA_A, SHA_B]
        assert [p["salt"] for p in points] == [SALT_A, SALT_B]
        assert [p["created_unix"] for p in points] == [100.0, 200.0]

    def test_trajectory_without_metric_returns_full_headline(self, store):
        put_run(store, "stub", 3.0, salt=SALT_A, sha=SHA_A, clock=10.0)
        catalog = Catalog(store)
        (point,) = catalog.trajectory("stub")
        assert point["value"] == {"metric": 3.0}

    def test_runs_missing_the_metric_are_skipped(self, store):
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=10.0)
        # A second run whose data has no 'metric' scalar at all.
        store._clock = lambda: 20.0
        spec = RequestSpec.build("stub", params={"v": 2}, salt=SALT_B)
        other = ExperimentResult(name="stub", title="stub")
        other.data = {"other": 9.0}
        store.put(spec, other, meta={"git_sha": SHA_B})
        catalog = Catalog(store)
        assert [p["value"] for p in catalog.trajectory("stub", "metric")] == [1.0]
        assert [p["value"] for p in catalog.trajectory("stub", "other")] == [9.0]
        assert catalog.metrics_for("stub") == ["metric", "other"]


class TestRowsAndParams:
    def test_rows_newest_first_with_limit(self, store):
        for clock, metric in ((100.0, 1.0), (300.0, 3.0), (200.0, 2.0)):
            put_run(
                store, "stub", metric,
                salt=SALT_A, sha=SHA_A, clock=clock,
                params={"clock": clock},
            )
        catalog = Catalog(store)
        rows = catalog.rows(experiment="stub")
        assert [r["created_unix"] for r in rows] == [300.0, 200.0, 100.0]
        assert [r["headline"]["metric"] for r in rows] == [3.0, 2.0, 1.0]
        assert len(catalog.rows(experiment="stub", limit=2)) == 2
        assert catalog.rows(experiment="stub", limit=0) == []
        assert rows[0]["params"] == {"clock": 300.0}
        assert rows[0]["params_hash"] == params_hash({"clock": 300.0})

    def test_negative_limit_is_an_error_not_every_row(self, store):
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=1.0)
        catalog = Catalog(store)
        with pytest.raises(ValueError, match="limit"):
            catalog.rows(limit=-1)

    def test_equal_timestamps_are_ordered_by_key(self, store):
        keys = [
            put_run(store, "stub", float(v), salt=SALT_A, sha=SHA_A, clock=5.0,
                    params={"v": v})
            for v in range(4)
        ]
        catalog = Catalog(store)
        assert [r["key"] for r in catalog.rows()] == sorted(keys)
        assert [p["key"] for p in catalog.trajectory("stub")] == sorted(keys)

    def test_param_diff_reports_varying_parameters_only(self, store):
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=1.0,
                params={"alpha": 1, "fixed": "x"})
        put_run(store, "stub", 2.0, salt=SALT_A, sha=SHA_A, clock=2.0,
                params={"alpha": 2, "fixed": "x"})
        put_run(store, "stub", 3.0, salt=SALT_A, sha=SHA_A, clock=3.0,
                params={"fixed": "x"})
        catalog = Catalog(store)
        diff = catalog.param_diff("stub")
        # 'fixed' never varies; 'alpha' takes 1, 2, and absent (None).
        assert set(diff) == {"alpha"}
        assert diff["alpha"] == [None, 1, 2]


class TestRefresh:
    """The view needs no refresh: every query reads the store's entries."""

    def test_refresh_is_incremental(self, store, monkeypatch):
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=1.0)
        catalog = Catalog(store)
        assert len(catalog) == 1
        # Queries never open a payload: a new put shows up on its own.
        def no_payload_reads(key):
            raise AssertionError(f"catalog opened payload {key}")

        monkeypatch.setattr(store, "get", no_payload_reads)
        put_run(store, "stub", 2.0, salt=SALT_A, sha=SHA_A, clock=2.0,
                params={"v": 2})
        assert len(catalog) == 2
        assert [r["headline"]["metric"] for r in catalog.rows()] == [2.0, 1.0]

    def test_refresh_drops_rows_for_vanished_payloads(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 0.0)
        keep = put_run(store, "keep", 1.0, salt=SALT_A, sha=SHA_A, clock=1.0)
        gone = put_run(store, "gone", 2.0, salt=SALT_A, sha=SHA_A, clock=2.0)
        store.flush()
        assert len(Catalog(store)) == 2

        store.path_for(gone).unlink()
        reopened = ResultStore(tmp_path / "store")  # compacts the index
        assert [r["key"] for r in Catalog(reopened).rows()] == [keep]

    def test_catalog_file_is_disposable(self, store):
        """The catalog's one file is ``index.jsonl``: lose it, lose nothing."""
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=1.0,
                params={"alpha": 1})
        store.flush()
        rows = Catalog(store).rows()
        store.index_path.unlink()
        rebuilt = Catalog(ResultStore(store.root))
        assert rebuilt.rows() == rows
        assert store.index_path.is_file()  # re-derived from the payloads


class TestExperimentsSummary:
    def test_summary_counts_runs_and_code_versions(self, store):
        put_run(store, "stub", 1.0, salt=SALT_A, sha=SHA_A, clock=10.0)
        put_run(store, "stub", 2.0, salt=SALT_B, sha=SHA_B, clock=20.0,
                params={"v": 2})
        put_run(store, "other", 5.0, salt=SALT_A, sha=SHA_A, clock=15.0)
        catalog = Catalog(store)
        summaries = {s["experiment"]: s for s in catalog.experiments()}
        assert set(summaries) == {"other", "stub"}
        assert summaries["stub"]["runs"] == 2
        assert summaries["stub"]["code_versions"] == 2
        assert summaries["stub"]["first_unix"] == 10.0
        assert summaries["stub"]["last_unix"] == 20.0
        assert summaries["other"]["runs"] == 1
