"""Content-addressed result store: round-trips and key stability."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.experiments.base import ExperimentResult
from repro.service.catalog import Catalog
from repro.service.store import RequestSpec, ResultStore, canonical_json
from repro.service.versioning import code_version_salt

#: The fields an index line held before it carried params and headline.
PARENT_LINE_FIELDS = ("created_unix", "experiment", "git_sha", "key", "quick", "salt")


def make_result(name="stub", value=1.5):
    result = ExperimentResult(name=name, title="A stub result")
    result.add("one rendered section")
    result.data = {"metric": value, "nested": {"ok": True}}
    return result


def by_key(entries):
    return sorted(entries, key=lambda entry: entry.key)


class TestCanonicalJson:
    def test_byte_stable_under_key_order(self):
        a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
        b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b == '{"a":{"x":3,"y":2},"b":1}'

    def test_no_whitespace_and_ascii_only(self):
        encoded = canonical_json({"k": "µ"})
        assert " " not in encoded
        assert encoded.isascii()


class TestRequestSpec:
    def test_key_is_sha256_of_canonical_encoding(self):
        spec = RequestSpec.build("fig2", {"alpha": 2}, quick=True, salt="s" * 16)
        expected = hashlib.sha256(spec.canonical().encode()).hexdigest()
        assert spec.key == expected
        # The canonical form itself is pinned: any change to it silently
        # orphans every existing store.
        assert spec.canonical() == (
            '{"experiment":"fig2","params":{"alpha":2},'
            '"quick":true,"salt":"ssssssssssssssss"}'
        )

    def test_key_stable_across_equivalent_builds(self):
        salt = "f" * 16
        one = RequestSpec.build("fig4", {"a": 1, "b": 2}, quick=False, salt=salt)
        two = RequestSpec.build("fig4", {"b": 2, "a": 1}, quick=False, salt=salt)
        assert one.key == two.key

    def test_key_moves_with_every_request_component(self):
        base = RequestSpec.build("fig4", {"a": 1}, quick=False, salt="x" * 16)
        variants = [
            RequestSpec.build("fig5", {"a": 1}, quick=False, salt="x" * 16),
            RequestSpec.build("fig4", {"a": 2}, quick=False, salt="x" * 16),
            RequestSpec.build("fig4", {"a": 1}, quick=True, salt="x" * 16),
            RequestSpec.build("fig4", {"a": 1}, quick=False, salt="y" * 16),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == 5

    def test_default_salt_is_current_code_version(self):
        spec = RequestSpec.build("fig2")
        assert spec.salt == code_version_salt()
        assert len(spec.salt) == 16


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 123.0)
        spec = RequestSpec.build("stub", quick=True, salt="a" * 16)
        key = store.put(spec, make_result(), meta={"seconds": 0.5})

        assert key == spec.key
        assert key in store
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.key == key
        assert loaded.request["experiment"] == "stub"
        assert loaded.result.name == "stub"
        assert loaded.result.title == "A stub result"
        assert loaded.result.data == {"metric": 1.5, "nested": {"ok": True}}
        assert loaded.result.sections == ["one rendered section"]
        assert loaded.result.render()  # reconstructed result still renders
        assert loaded.meta["seconds"] == 0.5
        assert loaded.meta["created_unix"] == 123.0

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert "0" * 64 not in store

    def test_layout_shards_by_key_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ab" + "0" * 62
        assert store.path_for(key) == tmp_path / "store" / "ab" / f"{key}.json"

    @pytest.mark.parametrize(
        "key",
        [
            "",
            "..",
            "./../secret",
            "ab/" + "0" * 61,
            "0" * 63,
            "0" * 65,
            "A" * 64,
            "0" * 63 + "\n",
            "g" * 64,
        ],
        ids=[
            "empty", "dotdot", "dot-dotdot", "slash", "short", "long", "upper", "newline",
            "non-hex",
        ],
    )
    def test_non_keys_are_refused_not_joined(self, tmp_path, key):
        """Only 64 lowercase hex digits name a payload; anything else is a
        miss, even when a ``.json`` file sits where the join would land."""
        store = ResultStore(tmp_path / "store")
        (tmp_path / "secret.json").write_text('{"secret": true}')
        with pytest.raises(ValueError):
            store.path_for(key)
        assert not store.has(key)
        assert key not in store
        assert store.get(key) is None

    def test_stray_json_files_are_not_keys(self, tmp_path):
        """Opening a store scans its payload files; one whose name is not a
        key is skipped, not handed to ``path_for``."""
        store = ResultStore(tmp_path / "store")
        spec = RequestSpec.build("one", salt="b" * 16)
        store.put(spec, make_result("one"))
        store.flush()
        (tmp_path / "store" / "ab").mkdir(exist_ok=True)
        (tmp_path / "store" / "ab" / "notes.json").write_text("{}")
        store.index_path.unlink()
        reopened = ResultStore(tmp_path / "store")
        assert list(reopened.keys()) == [spec.key]
        assert [entry.key for entry in reopened.entries()] == [spec.key]

    def test_flush_appends_index(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 9.0)
        for name in ("one", "two"):
            store.put(RequestSpec.build(name, salt="b" * 16), make_result(name))
        assert store.flush() == 2
        assert store.flush() == 0  # idempotent once drained
        lines = store.index_path.read_text().splitlines()
        assert [json.loads(line)["experiment"] for line in lines] == ["one", "two"]
        assert len(store) == 2
        assert sorted(store.keys()) == sorted(
            RequestSpec.build(name, salt="b" * 16).key for name in ("one", "two")
        )

    def test_headline_is_computed_from_the_data_as_stored(self, tmp_path):
        """Numpy scalars only become numbers the hooks read once stored."""
        store = ResultStore(tmp_path / "store", clock=lambda: 1.0)
        result = ExperimentResult(name="fig2", title="fig2 stub")
        result.data = {"peak_read": np.int64(30), "peak_write": np.float32(10.5)}
        store.put(RequestSpec.build("fig2", salt="a" * 16), result)
        (entry,) = store.entries()
        assert entry.headline == {"peak_read": 30.0, "peak_write": 10.5}
        store.flush()
        store.index_path.unlink()
        assert ResultStore(tmp_path / "store").entries() == [entry]

    def test_overwrite_is_atomic_and_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RequestSpec.build("stub", salt="c" * 16)
        store.put(spec, make_result(value=1.0))
        store.put(spec, make_result(value=2.0))
        loaded = store.get(spec.key)
        assert loaded.result.data["metric"] == 2.0
        assert len(store) == 1


class TestIndexCompaction:
    def test_entries_merge_flushed_and_pending(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 5.0)
        store.put(RequestSpec.build("one", salt="d" * 16), make_result("one"))
        store.flush()
        store.put(RequestSpec.build("two", salt="d" * 16), make_result("two"))
        # Unflushed results are already visible: the live dashboard and
        # the store must agree on what exists.
        assert sorted(e.experiment for e in store.entries()) == ["one", "two"]
        assert [e.experiment for e in store.entries(experiment="two")] == ["two"]
        entry = store.entries(experiment="one")[0]
        assert entry.salt == "d" * 16
        assert entry.created_unix == 5.0
        assert entry.quick is False

    def test_reopen_collapses_duplicate_index_lines(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 1.0)
        spec = RequestSpec.build("stub", salt="e" * 16)
        store.put(spec, make_result(value=1.0))
        store.flush()
        store.put(spec, make_result(value=2.0))
        store.flush()
        assert len(store.index_path.read_text().splitlines()) == 2

        reopened = ResultStore(tmp_path / "store")
        assert len(reopened.entries()) == 1
        # Compaction rewrote the file: one line per live key.
        assert len(reopened.index_path.read_text().splitlines()) == 1

    def test_reopen_recovers_from_crash_mid_append(self, tmp_path):
        """A torn index append must not lose the payload it described."""
        store = ResultStore(tmp_path / "store", clock=lambda: 2.0)
        specs = {
            name: RequestSpec.build(name, salt="f" * 16) for name in ("one", "two")
        }
        for name, spec in specs.items():
            store.put(spec, make_result(name))
        store.flush()
        # Crash scenario 1: the last index line was half-written.
        text = store.index_path.read_text()
        lines = text.splitlines()
        store.index_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        # Crash scenario 2: a payload landed but its index line never did.
        orphan_spec = RequestSpec.build("three", {"alpha": 3}, salt="f" * 16)
        store.put(orphan_spec, make_result("three", value=3.0))
        # (no flush — the process "died" here)

        reopened = ResultStore(tmp_path / "store")
        assert {e.experiment for e in reopened.entries()} == {"one", "two", "three"}
        # The recovered entries carry full provenance from the payloads.
        by_name = {e.experiment: e for e in reopened.entries()}
        assert by_name["two"].key == specs["two"].key
        assert by_name["two"].params == {}
        assert by_name["two"].headline == {"metric": 1.5}
        assert by_name["three"].salt == "f" * 16
        assert by_name["three"].created_unix == 2.0
        assert by_name["three"].params == {"alpha": 3}
        assert by_name["three"].headline == {"metric": 3.0}
        # The rewritten index is valid JSONL with one line per payload.
        rewritten = [
            json.loads(line)
            for line in reopened.index_path.read_text().splitlines()
        ]
        assert len(rewritten) == 3
        assert {line["key"] for line in rewritten} == set(reopened.keys())

    def test_reopen_drops_entries_without_payloads(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 3.0)
        keep = RequestSpec.build("keep", salt="a" * 16)
        drop = RequestSpec.build("drop", salt="a" * 16)
        store.put(keep, make_result("keep"))
        store.put(drop, make_result("drop"))
        store.flush()
        store.path_for(drop.key).unlink()

        reopened = ResultStore(tmp_path / "store")
        assert [e.experiment for e in reopened.entries()] == ["keep"]
        assert len(reopened.index_path.read_text().splitlines()) == 1

    def test_clean_index_is_not_rewritten_on_reopen(self, tmp_path):
        store = ResultStore(tmp_path / "store", clock=lambda: 4.0)
        store.put(RequestSpec.build("one", {"a": 1}, salt="b" * 16), make_result("one"))
        store.flush()
        (line,) = store.index_path.read_text().splitlines()
        assert json.loads(line)["params"] == {"a": 1}
        assert json.loads(line)["headline"] == {"metric": 1.5}
        before = store.index_path.stat().st_mtime_ns

        reopened = ResultStore(tmp_path / "store")
        assert reopened.entries() == store.entries()
        assert reopened.index_path.stat().st_mtime_ns == before

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda line: {k: line[k] for k in PARENT_LINE_FIELDS},
            lambda line: {**line, "params": [1]},
            lambda line: {**line, "headline": {"metric": "fast"}},
        ],
        ids=["parent-format", "params-not-a-dict", "headline-not-numeric"],
    )
    def test_malformed_line_is_rederived_once(self, tmp_path, mangle):
        """An index line without valid params and headline is re-derived
        from its payload on open, and the rewritten index then stays put."""
        store = ResultStore(tmp_path / "store", clock=lambda: 6.0)
        store.put(RequestSpec.build("one", {"a": 1}, salt="c" * 16), make_result("one"))
        store.put(RequestSpec.build("two", salt="c" * 16), make_result("two", 2.0))
        store.flush()
        current = store.index_path.read_text()
        lines = [json.loads(line) for line in current.splitlines()]
        store.index_path.write_text(
            "".join(json.dumps(mangle(line), sort_keys=True) + "\n" for line in lines)
        )

        reopened = ResultStore(tmp_path / "store")
        assert by_key(reopened.entries()) == by_key(store.entries())
        assert sorted(reopened.index_path.read_text().splitlines()) == sorted(
            current.splitlines()
        )
        rewritten = reopened.index_path.stat().st_mtime_ns

        again = ResultStore(tmp_path / "store")
        assert by_key(again.entries()) == by_key(store.entries())
        assert again.index_path.stat().st_mtime_ns == rewritten

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_crash_between_payload_write_and_index_append(self, tmp_path):
        """A process killed after ``put`` and before ``flush`` loses nothing."""
        spec = RequestSpec.build("stub", {"alpha": 2}, quick=True, salt="d" * 16)
        meta = {"git_sha": "e" * 40}
        pid = os.fork()
        if pid == 0:  # child: write the payload, then die before the flush
            code = 1
            try:
                crashed = ResultStore(tmp_path / "crashed", clock=lambda: 8.0)
                crashed.put(spec, make_result(value=2.5), meta=meta)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert not (tmp_path / "crashed" / "index.jsonl").exists()

        clean = ResultStore(tmp_path / "clean", clock=lambda: 8.0)
        clean.put(spec, make_result(value=2.5), meta=meta)
        clean.flush()

        recovered = ResultStore(tmp_path / "crashed")
        (entry,) = recovered.entries()
        assert entry == ResultStore(tmp_path / "clean").entries()[0]
        assert entry.params == {"alpha": 2}
        assert entry.headline == {"metric": 2.5}
        assert Catalog(recovered).rows() == Catalog(clean).rows()
