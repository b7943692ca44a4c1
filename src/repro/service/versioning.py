"""Code-version salt: tie stored results to the code that produced them.

A content-addressed result is only valid as long as the simulator that
computed it is unchanged — the paper's dead-write-back argument applied
to ourselves: serving a stale cached result is the software equivalent
of a hardware cache writing back data nobody wants.  The salt folds
``repro.__version__`` together with the *source bytes* of the packages
that determine experiment output, so any edit to simulation code
changes every store key and forces honest recomputation.

``git_sha`` is best-effort provenance for stored results and the
service's health report: a point on a report's trajectory is only
attributable if it names the commit that produced it.
"""

from __future__ import annotations

import hashlib
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Tuple

import repro

#: Packages (relative to the ``repro`` package root) whose source
#: participates in the salt.  Experiment output is a pure function of
#: these modules; docs/analysis/service plumbing is deliberately
#: excluded so refactors there do not invalidate stored results.  A
#: tier-1 test requires every top-level package and module to be listed
#: here or in its unsalted set, with the reason.
DEFAULT_SALT_PACKAGES: Tuple[str, ...] = (
    "autotm",
    "cache",
    "exec",
    "experiments",
    "graphs",
    "kernels",
    "memsys",
    "nn",
    "perf",
    "recsys",
    "traces",
    "units.py",
    "config.py",
)


def _package_root() -> Path:
    return Path(repro.__file__).resolve().parent


def _iter_sources(packages: Sequence[str]) -> Sequence[Path]:
    root = _package_root()
    files = []
    for name in packages:
        target = root / name
        if target.is_dir():
            files.extend(
                path
                for path in target.rglob("*.py")
                if "__pycache__" not in path.parts
            )
        elif target.is_file():
            files.append(target)
    return sorted(set(files))


@lru_cache(maxsize=4)
def _salt_for(packages: Tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    root = _package_root()
    for path in _iter_sources(packages):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_version_salt(packages: Sequence[str] = DEFAULT_SALT_PACKAGES) -> str:
    """A short stable hash of ``repro.__version__`` + simulation sources.

    Identical trees produce identical salts; touching any file under
    ``packages`` (or bumping the version) produces a new one.  Cached
    per process — the tree is hashed at most once per package set.
    """
    return _salt_for(tuple(packages))


def git_sha() -> Optional[str]:
    """The repository HEAD commit, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_package_root(),
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None
