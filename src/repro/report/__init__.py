"""Generated experiment reports: HTML pages with stdlib-built SVG.

The catalog (:mod:`repro.service.catalog`, a view over the result
store's index) makes experiment history *queryable*; this package makes
it *visible* without adding a plotting dependency.  Every chart is a
small hand-assembled SVG string — bandwidth bars, paper-vs-repro delta
tables, headline-trajectory sparklines across stored runs — inlined into per-experiment HTML
pages plus an index.

Rendering is a pure function of the store contents: the same store
renders byte-identical pages, so reports can be diffed across commits
and CI can gate on a second render producing the same bytes.

Consumed two ways::

    repro-report --store ./results --out ./report     # static bundle
    GET /reports/<experiment>                          # live dashboard

Modules:

* :mod:`repro.report.svg` — deterministic SVG primitives (bar charts,
  sparklines) with pinned float formatting.
* :mod:`repro.report.html` — HTML assembly helpers (escaping, tables,
  the page skeleton with inline CSS).
* :mod:`repro.report.render` — catalog -> HTML page composition.
* :mod:`repro.report.cli` — the ``repro-report`` entry point.
"""

from repro.report.render import render_experiment, render_index

__all__ = ["render_experiment", "render_index"]
