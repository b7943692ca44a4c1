"""Content-addressed result store: simulation results keyed by request.

The paper's core economic argument (Section IV) is that hardware redoes
work — dead write-backs, dirty-miss amplification — that software
management can simply skip.  This store applies the same economics to
the reproduction itself: every experiment run is deterministic, so its
result is a pure function of ``(experiment, params, quick, code
version)``.  Hash that request into a stable key, persist the result
once, and every identical future request is an O(1) file read instead
of a re-simulation.

Keys are SHA-256 over a *canonical* JSON encoding of the request
(sorted keys, no whitespace), so the same request always produces the
same bytes and therefore the same key.  The code-version salt
(:mod:`repro.service.versioning`) is part of the request: editing
simulation code moves every key, so a store can never serve a result
the current code would not reproduce.

Layout on disk::

    <root>/ab/<key>.json     one result payload per request key
    <root>/index.jsonl       append-only log of stored runs (flushed)

A key is exactly 64 lowercase hex digits; :meth:`ResultStore.path_for`
refuses anything else, so a key taken from a URL can never name a path
outside the store (``has`` and ``get`` report such a key as a miss).

Each index line carries what the catalog (:mod:`repro.service.catalog`)
queries: the request, its provenance, and the run's request ``params``
and ``headline`` metrics.  The headline is computed once, in
:meth:`ResultStore.put`, from the data as the payload stores it, so
queries never open payload files.

Writes are atomic (temp file + rename) so a concurrently-serving HTTP
thread never observes a half-written payload.  The index is *derived*:
payload files are the source of truth, and opening a store compacts the
index against them — duplicate keys collapse to the latest append,
truncated or malformed lines (a crash mid-append, an older line format)
are dropped, and payloads without a valid index line are re-derived
from the payload itself.  Deleting ``index.jsonl`` therefore re-derives
every entry with the current headline hooks.  Consumers read the
compacted view through :meth:`ResultStore.entries` instead of
re-parsing ``index.jsonl`` themselves.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.experiments.base import ExperimentResult
from repro.experiments.headline import headline_metrics
from repro.perf.export import to_jsonable
from repro.service.versioning import code_version_salt, git_sha

#: Bump when the payload schema changes; part of the on-disk payload
#: (not the key) so old stores remain readable or clearly rejected.
STORE_FORMAT = 1

#: A request key: a SHA-256 hex digest, as :attr:`RequestSpec.key` spells it.
_KEY = re.compile(r"[0-9a-f]{64}")


def _is_key(key: object) -> bool:
    """Whether ``key`` is a well-formed request key (64 lowercase hex digits)."""
    return isinstance(key, str) and _KEY.fullmatch(key) is not None


def canonical_json(value: Any) -> str:
    """Byte-stable JSON: sorted keys, minimal separators, pure ASCII."""
    return json.dumps(
        to_jsonable(value), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


@dataclass(frozen=True)
class RequestSpec:
    """One cacheable simulation request.

    ``params`` are the extra keyword arguments beyond ``quick`` (must be
    plain JSON-able data); ``salt`` defaults to the current tree's
    code-version salt so results can never outlive the code.
    """

    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    quick: bool = False
    salt: str = ""

    @classmethod
    def build(
        cls,
        experiment: str,
        params: Optional[Mapping[str, Any]] = None,
        quick: bool = False,
        salt: Optional[str] = None,
    ) -> "RequestSpec":
        return cls(
            experiment=experiment,
            params=dict(params or {}),
            quick=bool(quick),
            salt=salt if salt is not None else code_version_salt(),
        )

    def canonical(self) -> str:
        """The canonical request encoding that is hashed into the key."""
        return canonical_json(
            {
                "experiment": self.experiment,
                "params": dict(self.params),
                "quick": self.quick,
                "salt": self.salt,
            }
        )

    @property
    def key(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class StoredResult:
    """One payload read back from the store."""

    key: str
    request: Dict[str, Any]
    result: ExperimentResult
    meta: Dict[str, Any]


@dataclass(frozen=True)
class IndexEntry:
    """One compacted line of ``index.jsonl``.

    ``salt`` and ``git_sha`` are provenance: they let the catalog group
    results by the code version (and commit) that produced them.
    ``params`` and ``headline`` are the run's request parameters and
    headline metrics, derived from the payload as stored, so the
    catalog answers every query without opening a payload file.
    """

    key: str
    experiment: str
    quick: bool
    created_unix: float
    salt: str = ""
    git_sha: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    headline: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "experiment": self.experiment,
            "quick": self.quick,
            "created_unix": self.created_unix,
            "salt": self.salt,
            "git_sha": self.git_sha,
            "params": self.params,
            "headline": self.headline,
        }

    @classmethod
    def from_json(cls, obj: Any) -> Optional["IndexEntry"]:
        """Parse one index line; ``None`` for malformed records.

        A line without well-formed ``params`` and ``headline`` fields
        (torn, hand-edited, or in an older format) is malformed: opening
        the store re-derives its entry from the payload.
        """
        if not isinstance(obj, dict):
            return None
        key = obj.get("key")
        experiment = obj.get("experiment")
        created = obj.get("created_unix")
        params = obj.get("params")
        headline = obj.get("headline")
        if (
            not isinstance(key, str)
            or not isinstance(experiment, str)
            or not isinstance(created, (int, float))
            or not isinstance(params, dict)
            or not isinstance(headline, dict)
            or not all(isinstance(v, (int, float)) for v in headline.values())
        ):
            return None
        sha = obj.get("git_sha")
        return cls(
            key=key,
            experiment=experiment,
            quick=bool(obj.get("quick", False)),
            created_unix=float(created),
            salt=str(obj.get("salt", "") or ""),
            git_sha=sha if isinstance(sha, str) and sha else None,
            params=params,
            headline=headline,
        )


def _headline(experiment: str, data: Any) -> Dict[str, float]:
    """The headline metrics of stored ``data``, as an index line holds them.

    They take the canonical-JSON round trip an index line takes, so an
    entry read back from ``index.jsonl`` equals the one ``put`` built.
    """
    if not isinstance(data, Mapping):
        return {}
    return json.loads(canonical_json(headline_metrics(experiment, data)))


class ResultStore:
    """Disk-backed content-addressed store of experiment results.

    ``clock`` is injected (a callable returning seconds) so tests and
    deterministic replays control the ``created`` metadata; the default
    is the host wall-clock, which is provenance, not simulation input.
    """

    def __init__(
        self, root: "str | Path", clock: Callable[[], float] = time.time
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._pending_index: List[IndexEntry] = []
        self._git_sha: Optional[str] = git_sha()
        self._entries: Dict[str, IndexEntry] = self._load_index()

    # -- paths -------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Where ``key``'s payload lives; ``ValueError`` unless it is a key."""
        if not _is_key(key):
            raise ValueError(f"not a result key: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    # -- lookup ------------------------------------------------------

    def has(self, key: str) -> bool:
        return _is_key(key) and self.path_for(key).is_file()

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def get(self, key: str) -> Optional[StoredResult]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        if not _is_key(key):
            return None
        try:
            payload = json.loads(self.path_for(key).read_text())
        except FileNotFoundError:
            return None
        result = ExperimentResult(
            name=payload["result"]["name"],
            title=payload["result"]["title"],
            data=payload["result"]["data"],
            sections=list(payload["result"]["sections"]),
        )
        return StoredResult(
            key=payload["key"],
            request=payload["request"],
            result=result,
            meta=payload.get("meta", {}),
        )

    # -- storage -----------------------------------------------------

    def put(
        self,
        spec: RequestSpec,
        result: ExperimentResult,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Persist one result under its request key; returns the key."""
        key = spec.key
        meta = dict(meta or {})
        meta.setdefault("git_sha", self._git_sha)
        payload = {
            "format": STORE_FORMAT,
            "key": key,
            "request": json.loads(spec.canonical()),
            "result": {
                "name": result.name,
                "title": result.title,
                "data": to_jsonable(result.data),
                "sections": list(result.sections),
            },
            "meta": {"created_unix": round(self._clock(), 3), **meta},
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        # Index the payload as it is read back: the JSON round trip turns
        # arrays into lists and tuple keys into strings.
        stored = json.loads(text)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        self._pending_index.append(
            IndexEntry(
                key=key,
                experiment=spec.experiment,
                quick=spec.quick,
                created_unix=payload["meta"]["created_unix"],
                salt=spec.salt,
                git_sha=payload["meta"].get("git_sha"),
                params=stored["request"]["params"],
                headline=_headline(spec.experiment, stored["result"]["data"]),
            )
        )
        return key

    def flush(self) -> int:
        """Append pending index entries to ``index.jsonl``; returns count."""
        if not self._pending_index:
            return 0
        lines = [
            json.dumps(entry.to_json(), sort_keys=True)
            for entry in self._pending_index
        ]
        with self.index_path.open("a") as handle:
            handle.write("\n".join(lines) + "\n")
        flushed = len(self._pending_index)
        for entry in self._pending_index:
            self._entries[entry.key] = entry
        self._pending_index.clear()
        return flushed

    # -- index -------------------------------------------------------

    def entries(self, experiment: Optional[str] = None) -> List[IndexEntry]:
        """The compacted index: one entry per stored key, append order.

        Includes results ``put`` but not yet flushed, so a live service
        and its dashboard agree on what exists.  This is the supported
        way to enumerate a store; nobody should re-parse ``index.jsonl``.
        """
        merged = dict(self._entries)
        for entry in self._pending_index:
            merged[entry.key] = entry
        return [
            entry
            for entry in merged.values()
            if experiment is None or entry.experiment == experiment
        ]

    def _load_index(self) -> Dict[str, IndexEntry]:
        """Read + compact ``index.jsonl`` against the payload files.

        Drops corrupt/truncated lines (crash mid-append, an older line
        format), collapses duplicate keys to the latest append
        (overwritten results), drops entries whose payload vanished, and
        re-derives every payload left without a valid line.  Rewrites
        the file only when something actually changed.
        """
        entries: Dict[str, IndexEntry] = {}
        dirty = False
        if self.index_path.is_file():
            for line in self.index_path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    dirty = True  # torn append: payload scan recovers it
                    continue
                entry = IndexEntry.from_json(obj)
                if entry is None:
                    dirty = True
                    continue
                if entry.key in entries:
                    dirty = True  # duplicate: later append supersedes
                entries[entry.key] = entry
        disk_keys = set(self.keys())
        for key in [key for key in entries if key not in disk_keys]:
            del entries[key]
            dirty = True
        for key in sorted(disk_keys - entries.keys()):
            recovered = self._entry_from_payload(key)
            if recovered is not None:
                entries[key] = recovered
                dirty = True
        if dirty:
            self._rewrite_index(entries)
        return entries

    def _entry_from_payload(self, key: str) -> Optional[IndexEntry]:
        """Re-derive one index entry from its payload file (recovery)."""
        try:
            payload = json.loads(self.path_for(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        parts = [payload.get(part) for part in ("request", "meta", "result")]
        if not all(isinstance(part, dict) for part in parts):
            return None
        request, meta, result = parts
        experiment = request.get("experiment")
        if not isinstance(experiment, str):
            return None
        return IndexEntry.from_json(
            {
                "key": key,
                "experiment": experiment,
                "quick": request.get("quick", False),
                "created_unix": meta.get("created_unix", 0.0),
                "salt": request.get("salt", ""),
                "git_sha": meta.get("git_sha"),
                "params": request.get("params") or {},
                "headline": _headline(experiment, result.get("data")),
            }
        )

    def _rewrite_index(self, entries: Mapping[str, IndexEntry]) -> None:
        tmp = self.index_path.with_suffix(".tmp")
        lines = [
            json.dumps(entry.to_json(), sort_keys=True)
            for entry in entries.values()
        ]
        tmp.write_text("\n".join(lines) + "\n" if lines else "")
        os.replace(tmp, self.index_path)

    # -- introspection -----------------------------------------------

    def keys(self) -> Iterator[str]:
        """Every stored key, from the on-disk payload files."""
        for path in sorted(self.root.glob("??/*.json")):
            if _is_key(path.stem):  # path_for refuses any other name
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
