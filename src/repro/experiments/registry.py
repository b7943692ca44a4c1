"""Experiment registry and lookup.

:data:`EXPERIMENTS` is a static table, so listing the experiments or
validating a name imports none of them.  An experiment's module is
imported when the experiment is looked up or run; a process that forks
workers to run experiments calls :func:`load_all` first, so that no
worker pays an import.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable, Dict

from repro import obs
from repro.experiments.base import ExperimentResult

#: Every table/figure of the paper's evaluation: name -> the module whose
#: ``run`` regenerates it.
EXPERIMENTS: Dict[str, str] = {
    "fig2": "repro.experiments.fig2",
    "table1": "repro.experiments.table1",
    "fig4": "repro.experiments.fig4",
    "fig5": "repro.experiments.fig5",
    "fig6": "repro.experiments.fig6",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "fig9": "repro.experiments.fig9",
    "fig10": "repro.experiments.fig10",
    "table2": "repro.experiments.table2",
    "ablation": "repro.experiments.ablation",
    "dma": "repro.experiments.dma",
    "mix": "repro.experiments.mix",
    "dlrm": "repro.experiments.dlrm",
    "gpt": "repro.experiments.gpt",
    "kvtrace": "repro.experiments.kvtrace",
    "check": "repro.experiments.check",
}


def registered_names() -> list[str]:
    """Every registered experiment name, sorted (for CLI/service errors)."""
    return sorted(EXPERIMENTS)


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """The ``run`` of experiment ``name``, importing its module if need be."""
    try:
        module = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(registered_names())}"
        ) from None
    return importlib.import_module(module).run


def load_all() -> Dict[str, Callable[..., ExperimentResult]]:
    """Every experiment's ``run`` by name, with every module imported."""
    return {name: get_experiment(name) for name in EXPERIMENTS}


_log = obs.get_logger("experiments")


def supports_jobs(name: str) -> bool:
    """Whether an experiment's ``run`` accepts a ``jobs`` parameter."""
    return "jobs" in inspect.signature(get_experiment(name)).parameters


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
