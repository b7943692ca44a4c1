"""``python -m repro.analysis`` — the repro-lint command line.

Usage::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --format json
    python -m repro.analysis src/repro --changed-only
    python -m repro.analysis src/repro --graph dot
    python -m repro.analysis --list-rules

Exit codes: 0 clean, 1 findings, 2 usage or analysis error.  A finding
is either fixed or suppressed inline with its reason
(``# repro-lint: disable=RULE (why)``); there is no baseline file.

``--changed-only`` still parses the full tree (the project-level rules
need the whole graph) but reports only findings in files git considers
changed (worktree diff vs HEAD plus untracked files); when git is
unavailable it falls back to the full tree.  ``--graph dot`` skips the
rules entirely and prints the package-level import graph.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.core import (
    AnalysisError,
    AnalysisReport,
    Project,
    iter_source_files,
    run_analysis,
)
from repro.analysis.reporters import render_dot, render_json, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _git_changed_files() -> Optional[Set[Path]]:
    """Absolute paths of files git considers changed, or None without git.

    Changed means modified/added/renamed vs HEAD (staged or not) plus
    untracked-but-not-ignored — everything a pre-commit run cares
    about.  Any git failure (no binary, not a repository, no HEAD yet)
    returns None and the caller falls back to the full tree.
    """

    def run(*args: str) -> str:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True, timeout=30
        ).stdout

    try:
        root = Path(run("rev-parse", "--show-toplevel").strip())
        listed = run("diff", "--name-only", "HEAD") + run(
            "ls-files", "--others", "--exclude-standard"
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {(root / line).resolve() for line in listed.splitlines() if line}


def _only_changed(report: AnalysisReport, changed: Set[Path]) -> AnalysisReport:
    def keep(findings):
        return [f for f in findings if Path(f.path).resolve() in changed]

    return AnalysisReport(
        findings=keep(report.findings),
        suppressed=keep(report.suppressed),
        files=report.files,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: determinism, units, and telemetry hygiene",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze (e.g. src/repro)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json output is byte-stable across runs)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="report findings only for files git sees as changed "
        "(full tree still parsed; falls back to the full tree without git)",
    )
    parser.add_argument(
        "--graph",
        choices=("dot",),
        help="print the package-level import graph instead of running rules",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in ALL_CHECKERS:
            print(f"{cls.rule}  {cls.description}")
        return EXIT_CLEAN
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src/repro)")

    if args.graph:
        try:
            project = Project()
            for path in iter_source_files([Path(p) for p in args.paths]):
                project.load(path)
        except AnalysisError as error:
            print(f"repro-lint: error: {error}", file=sys.stderr)
            return EXIT_ERROR
        sys.stdout.write(render_dot(project.graph()))
        return EXIT_CLEAN

    try:
        report = run_analysis([Path(path) for path in args.paths])
    except AnalysisError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return EXIT_ERROR

    if args.changed_only:
        changed = _git_changed_files()
        if changed is None:
            print(
                "[changed-only: git unavailable, checking the full tree]",
                file=sys.stderr,
            )
        else:
            report = _only_changed(report, changed)

    output = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(output)
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
