"""Experiment registry and lookup."""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict

from repro import obs
from repro.experiments import (
    ablation,
    check,
    dlrm,
    dma,
    fig2,
    gpt,
    kvtrace,
    mix,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table1,
    table2,
)
from repro.experiments.base import ExperimentResult

#: Every table/figure of the paper's evaluation, by name.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig2": fig2.run,
    "table1": table1.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "table2": table2.run,
    "ablation": ablation.run,
    "dma": dma.run,
    "mix": mix.run,
    "dlrm": dlrm.run,
    "gpt": gpt.run,
    "kvtrace": kvtrace.run,
    "check": check.run,
}


def registered_names() -> list[str]:
    """Every registered experiment name, sorted (for CLI/service errors)."""
    return sorted(EXPERIMENTS)


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(registered_names())}"
        ) from None


_log = obs.get_logger("experiments")


def supports_jobs(name: str) -> bool:
    """Whether an experiment's ``run`` accepts a ``jobs`` parameter."""
    return "jobs" in inspect.signature(EXPERIMENTS[name]).parameters


def run_experiment(
    name: str, quick: bool = False, jobs: int = 1, **inputs: Any
) -> ExperimentResult:
    """Run one experiment, wrapped in a root telemetry span.

    ``jobs`` is forwarded to sweep-based experiments (those whose
    ``run`` accepts it) and ignored — with a log note — for the rest.
    Only non-default values are forwarded, so direct serial callers and
    the registry share memoization entries (``ablation.run`` is
    ``lru_cache``-d).  ``inputs`` go to ``run`` as they are; ``all``
    hands ``check`` the results it already has this way.
    """
    fn = get_experiment(name)
    kwargs = {"quick": quick, **inputs}
    if jobs != 1:
        if supports_jobs(name):
            kwargs["jobs"] = jobs
        else:
            _log.info("%s does not sweep; ignoring jobs=%d", name, jobs)
    tele = obs.get()
    _log.info("running %s (quick=%s, jobs=%d)", name, quick, jobs)
    if not tele.enabled:
        return fn(**kwargs)
    with tele.span(f"experiment:{name}", cat="experiment", quick=quick):
        result = fn(**kwargs)
    result.attach_telemetry(tele)
    _log.info("finished %s: %d spans recorded", name, len(tele.tracer))
    return result
