"""Compose catalog state into HTML report pages.

Pure functions of the catalog: no clocks, no randomness, sorted
iteration everywhere — the same store must render
byte-identical pages (CI diffs a second render against the first).
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from repro.experiments.check import paper_values
from repro.experiments.headline import KVTRACE_VERDICT_METRICS
from repro.report import svg
from repro.report.html import esc, page, table
from repro.report.svg import fmt
from repro.service.catalog import Catalog

#: Runs shown in a per-experiment history table (the trajectory charts
#: still cover every run).
MAX_RUN_ROWS = 50


def _iso(unix: float) -> str:
    stamp = datetime.fromtimestamp(float(unix), tz=timezone.utc)
    return stamp.strftime("%Y-%m-%d %H:%M:%SZ")


def _short(sha: Optional[str]) -> str:
    return sha[:10] if sha else "-"


def _headline_summary(headline: Dict[str, float], limit: int = 3) -> str:
    parts = [f"{name}={fmt(value)}" for name, value in sorted(headline.items())]
    if len(parts) > limit:
        parts = parts[:limit] + ["…"]
    return ", ".join(parts) if parts else "-"


def _delta_cell(repro_value: float, paper_value: float) -> str:
    if paper_value == 0:
        return f'<span class="muted">{fmt(repro_value - paper_value)}</span>'
    delta = (repro_value - paper_value) / abs(paper_value) * 100.0
    cls = "delta-ok" if abs(delta) <= 15.0 else "delta-bad"
    sign = "+" if delta >= 0 else ""
    return f'<span class="{cls}">{sign}{fmt(delta, 3)}%</span>'


def _paper_delta_section(experiment: str, latest: Dict[str, float]) -> List[str]:
    baselines = paper_values(experiment)
    if not baselines:
        return []
    rows = []
    for metric in sorted(baselines):
        paper_value = baselines[metric]
        repro_value = latest.get(metric)
        rows.append(
            [
                metric,
                fmt(paper_value),
                fmt(repro_value) if repro_value is not None else "-",
                _delta_cell(repro_value, paper_value)
                if repro_value is not None
                else '<span class="muted">not in latest run</span>',
            ]
        )
    return [
        "<h2>Paper vs repro</h2>",
        table(["metric", "paper", "repro (latest)", "delta"], rows, numeric=(1, 2, 3)),
    ]


def _kvtrace_verdicts(headline: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Regroup flat ``{trace}_{metric}`` headline keys per trace.

    The catalog stores only headline metrics, so the verdict table is a
    pure function of the latest run's headline row — which keeps the
    page byte-stable and renderable from any stored run.
    """
    verdicts: Dict[str, Dict[str, float]] = {}
    for metric in KVTRACE_VERDICT_METRICS:
        suffix = f"_{metric}"
        for name, value in headline.items():
            if name.endswith(suffix) and len(name) > len(suffix):
                verdicts.setdefault(name[: -len(suffix)], {})[metric] = value
    return verdicts


def _kvtrace_verdict_section(headline: Dict[str, float]) -> List[str]:
    """Per-trace hardware-vs-software verdict for the kvtrace page."""
    verdicts = _kvtrace_verdicts(headline)
    rows = []
    for trace in sorted(verdicts):
        v = verdicts[trace]
        if "hw_gbps" not in v or "sw_gbps" not in v:
            continue
        holds = v.get("case_holds", 0.0) >= 1.0
        ratio = v["sw_gbps"] / v["hw_gbps"] if v["hw_gbps"] else float("inf")
        cls = "delta-ok" if holds else "delta-bad"
        label = "case holds (software wins)" if holds else "case inverts (hardware wins)"
        rows.append(
            [
                esc(trace),
                fmt(v["hw_gbps"]),
                fmt(v["sw_gbps"]),
                fmt(ratio),
                fmt(v["hw_nvram_writes"]) if "hw_nvram_writes" in v else "-",
                fmt(v["sw_nvram_writes"]) if "sw_nvram_writes" in v else "-",
                f'<span class="{cls}">{label}</span>',
            ]
        )
    if not rows:
        return []
    return [
        "<h2>Hardware vs software, per trace</h2>",
        '<p class="muted">The paper\'s case against hardware-managed DRAM '
        "caches, re-tried on storage traces: hardware is the direct-mapped "
        "2LM design point, software is a profile-placed flat (1LM) layout "
        "on the same scaled platform. NVRAM writes count 64 B lines.</p>",
        table(
            [
                "trace",
                "hardware GB/s",
                "software GB/s",
                "sw/hw",
                "hw NVRAM writes",
                "sw NVRAM writes",
                "verdict",
            ],
            rows,
            numeric=(1, 2, 3, 4, 5),
        ),
    ]


def _trajectory_section(catalog: Catalog, experiment: str) -> List[str]:
    # One pass over the runs: each point carries its whole headline, and
    # a metric's row keeps the runs that report it, oldest first.
    headlines = [point["value"] for point in catalog.trajectory(experiment)]
    metrics = sorted({metric for headline in headlines for metric in headline})
    if not metrics:
        return []
    rows = []
    for metric in metrics:
        values = [headline[metric] for headline in headlines if metric in headline]
        rows.append(
            [
                metric,
                svg.sparkline(values),
                fmt(values[-1]),
                fmt(max(values) - min(values)),
                str(len(values)),
            ]
        )
    return [
        "<h2>Trajectory across stored runs</h2>",
        '<p class="muted">One point per stored run, oldest to newest; '
        "runs span code versions (salts) and commits.</p>",
        table(
            ["metric", "trajectory", "latest", "spread", "runs"],
            rows,
            numeric=(2, 3, 4),
        ),
    ]


def _runs_section(runs: List[Dict[str, Any]]) -> List[str]:
    rows = []
    for run in runs[:MAX_RUN_ROWS]:
        params = run["params"]
        rows.append(
            [
                _iso(run["created_unix"]),
                f"<code>{esc(_short(run['git_sha']))}</code>",
                f"<code>{esc(run['salt'] or '-')}</code>",
                "yes" if run["quick"] else "no",
                f"<code>{esc(run['params_hash'])}</code>"
                if params
                else '<span class="muted">default</span>',
                _headline_summary(run["headline"], limit=4),
            ]
        )
    body = [
        "<h2>Stored runs</h2>",
        table(
            ["created (UTC)", "commit", "code version", "quick", "params", "headline"],
            rows,
        ),
    ]
    if len(runs) > MAX_RUN_ROWS:
        body.append(
            f'<p class="muted">showing {MAX_RUN_ROWS} of {len(runs)} runs</p>'
        )
    return body


def _param_diff_section(catalog: Catalog, experiment: str) -> List[str]:
    diff = catalog.param_diff(experiment)
    if not diff:
        return []
    rows = [
        [name, ", ".join("∅" if v is None else str(v) for v in values)]
        for name, values in sorted(diff.items())
    ]
    return [
        "<h2>Explored parameters</h2>",
        '<p class="muted">Parameters taking more than one value across '
        "stored runs (∅ = parameter absent).</p>",
        table(["parameter", "observed values"], rows),
    ]


def render_experiment(catalog: Catalog, experiment: str) -> Optional[str]:
    """The full HTML page for one experiment, ``None`` if it has no runs."""
    runs = catalog.rows(experiment=experiment)
    if not runs:
        return None
    latest = runs[0]
    body: List[str] = [
        f"<h1>{esc(experiment)}</h1>",
        f'<p class="muted"><a href="index.html">← all experiments</a> · '
        f"{len(runs)} stored run{'s' if len(runs) != 1 else ''} · "
        f"latest {_iso(latest['created_unix'])} on "
        f"<code>{esc(_short(latest['git_sha']))}</code></p>",
    ]
    headline = latest["headline"]
    if headline:
        baselines = paper_values(experiment)
        items = sorted(headline.items())
        body.append("<h2>Latest headline metrics</h2>")
        body.append(
            svg.bar_chart(
                items,
                title=f"{experiment}: latest stored run",
                baselines=[baselines.get(name) for name, _ in items],
            )
        )
        if baselines:
            body.append(
                '<p class="muted">Grey ticks mark the paper\'s published '
                "value where one exists.</p>"
            )
    if experiment == "kvtrace":
        body.extend(_kvtrace_verdict_section(headline))
    body.extend(_paper_delta_section(experiment, headline))
    body.extend(_trajectory_section(catalog, experiment))
    body.extend(_param_diff_section(catalog, experiment))
    body.extend(_runs_section(runs))
    return page(f"{experiment} — repro report", body)


def render_index(catalog: Catalog) -> str:
    """The report index: one row per experiment present in the store."""
    summaries = catalog.experiments()
    body: List[str] = [
        "<h1>Experiment reports</h1>",
        f'<p class="muted">{len(summaries)} experiments · '
        f"{len(catalog)} stored runs · rendered from the result store "
        "(content-addressed, code-version salted).</p>",
    ]
    if summaries:
        rows = []
        for summary in summaries:
            name = summary["experiment"]
            latest = catalog.rows(experiment=name, limit=1)
            headline = latest[0]["headline"] if latest else {}
            rows.append(
                [
                    f'<a href="{esc(name)}.html">{esc(name)}</a>',
                    str(summary["runs"]),
                    str(summary["code_versions"]),
                    _iso(summary["last_unix"]),
                    _headline_summary(headline),
                ]
            )
        body.append(
            table(
                ["experiment", "runs", "code versions", "latest (UTC)", "latest headline"],
                rows,
                numeric=(1, 2),
            )
        )
    else:
        body.append("<p>The store is empty — run some experiments first.</p>")
    return page("repro report index", body)
