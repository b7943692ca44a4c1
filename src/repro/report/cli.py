"""``repro-report`` command-line entry point.

Usage::

    repro-report --store ./results
    repro-report --store ./results --out ./report
    repro-report --store ./results --experiment fig4

Renders ``index.html`` plus one ``<experiment>.html`` page per
experiment present in the store, with every chart inlined as SVG so the
output directory is a self-contained static bundle.  Rendering is a
pure function of the store: running the command twice over an unchanged
store produces byte-identical files (CI gates on exactly that), so a
report diff is a *result* diff.  The store's ``index.jsonl`` is derived
from its payloads: after hand-editing a store, delete it and the next
render re-derives every entry.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.report.render import render_experiment, render_index
from repro.service.catalog import Catalog
from repro.service.store import ResultStore


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=(
            "Render HTML/SVG experiment reports from a content-addressed "
            "result store"
        ),
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="result store directory (as written by repro-experiment --store)",
    )
    parser.add_argument(
        "--out",
        default="repro-report",
        metavar="DIR",
        help="output directory for the HTML bundle (default: ./repro-report)",
    )
    parser.add_argument(
        "--experiment",
        metavar="NAME",
        help="render only this experiment's page (plus the index)",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="enable structured logging at LEVEL (debug, info, warning, ...)",
    )
    args = parser.parse_args(argv)

    if args.log_level:
        try:
            obs.configure_logging(args.log_level)
        except ValueError as error:
            parser.error(str(error))

    store_root = Path(args.store)
    if not store_root.is_dir():
        parser.error(f"store directory {args.store!r} does not exist")

    store = ResultStore(store_root)
    catalog = Catalog(store)
    print(f"[catalog: {len(catalog)} rows <- {store.index_path}]")

    names = sorted(
        summary["experiment"] for summary in catalog.experiments()
    )
    if args.experiment is not None:
        if args.experiment not in names:
            parser.error(
                f"experiment {args.experiment!r} has no stored runs; "
                f"present: {', '.join(names) or '(store is empty)'}"
            )
        names = [args.experiment]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names:
        html = render_experiment(catalog, name)
        if html is None:  # raced an emptying store; skip quietly
            continue
        path = out_dir / f"{name}.html"
        path.write_text(html)
        written.append(path)
    index_path = out_dir / "index.html"
    index_path.write_text(render_index(catalog))
    written.append(index_path)
    for path in written:
        print(f"[report -> {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
