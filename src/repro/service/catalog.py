"""Queryable catalog over the content-addressed result store.

The :class:`~repro.service.store.ResultStore` answers exactly one
question fast: "has *this* request been computed?".  Design-space work
asks different questions — "how did fig4's paper delta move across the
last five commits?", "which parameter settings of the designspace sweep
have we already explored?" — and the catalog answers them.

It is a read-only view over :meth:`ResultStore.entries`: each index
entry already carries ``(experiment, params, git SHA, code-version
salt, quick, timestamp, headline metrics)``, the headline computed once
by :meth:`ResultStore.put` through the per-experiment hooks in
:mod:`repro.experiments.headline`.  So queries never open payload
files, and there is no second copy of the index to keep coherent: every
query sees the store's entries as they are, unflushed results included.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.service.store import IndexEntry, ResultStore, canonical_json


def params_hash(params: Dict[str, Any]) -> str:
    """A short stable digest of one parameter assignment."""
    return hashlib.sha256(canonical_json(params).encode()).hexdigest()[:12]


def _row(entry: IndexEntry, digest: str) -> Dict[str, Any]:
    return {
        "key": entry.key,
        "experiment": entry.experiment,
        "params_hash": digest,
        "params": dict(entry.params),
        "quick": entry.quick,
        "git_sha": entry.git_sha,
        "salt": entry.salt,
        "created_unix": entry.created_unix,
        "headline": dict(entry.headline),
    }


class Catalog:
    """Read-only queries over a result store's index entries."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        #: :func:`params_hash` per entry key.  A key fixes its params, so
        #: each run is hashed once however many queries list it.
        self._params_hashes: Dict[str, str] = {}

    def _params_hash(self, entry: IndexEntry) -> str:
        digest = self._params_hashes.get(entry.key)
        if digest is None:
            digest = self._params_hashes[entry.key] = params_hash(entry.params)
        return digest

    def experiments(self) -> List[Dict[str, Any]]:
        """Per-experiment summary: run counts and the freshest run."""
        runs: Dict[str, List[IndexEntry]] = {}
        for entry in self.store.entries():
            runs.setdefault(entry.experiment, []).append(entry)
        return [
            {
                "experiment": name,
                "runs": len(group),
                "code_versions": len({entry.salt for entry in group}),
                "first_unix": min(entry.created_unix for entry in group),
                "last_unix": max(entry.created_unix for entry in group),
            }
            for name, group in sorted(runs.items())
        ]

    def rows(
        self, experiment: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Catalog rows, newest first (then by key for determinism)."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        newest = sorted(
            self.store.entries(experiment),
            key=lambda entry: (-entry.created_unix, entry.key),
        )
        return [_row(entry, self._params_hash(entry)) for entry in newest[:limit]]

    def trajectory(self, experiment: str) -> List[Dict[str, Any]]:
        """Headline metrics across code versions, oldest first.

        One point per stored run of ``experiment``, ordered by
        ``created_unix`` (ties broken by key), each labelled with the
        ``(git_sha, salt)`` that produced it and carrying the run's whole
        headline dict as ``value`` — the "how did this number move across
        commits" query.  Unknown experiments yield an empty list.
        """
        oldest = sorted(
            self.store.entries(experiment),
            key=lambda entry: (entry.created_unix, entry.key),
        )
        return [
            {
                "key": entry.key,
                "created_unix": entry.created_unix,
                "git_sha": entry.git_sha,
                "salt": entry.salt,
                "quick": entry.quick,
                "params_hash": self._params_hash(entry),
                "value": dict(entry.headline),
            }
            for entry in oldest
        ]

    def param_diff(self, experiment: str) -> Dict[str, List[Any]]:
        """Which parameters vary across an experiment's stored runs.

        Maps each parameter name that takes more than one distinct value
        (absence counts as a value) to the sorted list of observed
        values — the "what have we already explored" query for sweeps.
        """
        assignments = [entry.params for entry in self.store.entries(experiment)]
        names = sorted({name for params in assignments for name in params})
        diff: Dict[str, List[Any]] = {}
        for name in names:
            seen = {canonical_json(params.get(name)) for params in assignments}
            if len(seen) > 1:
                diff[name] = sorted(
                    (json.loads(encoded) for encoded in seen),
                    key=lambda v: (str(type(v).__name__), str(v)),
                )
        return diff

    def __len__(self) -> int:
        return len(self.store.entries())
