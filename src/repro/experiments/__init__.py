"""Experiment harness: one module per table and figure of the paper.

Every experiment exposes ``run(quick=False) -> ExperimentResult`` and is
registered in :mod:`repro.experiments.registry`; the ``repro-experiment``
CLI runs them by name and prints text renderings of the paper's tables
and figures.  ``quick=True`` shrinks workload sizes for CI.

Importing this package imports no experiment: a process loads only the
experiments it runs, through the registry.
"""
