"""repro-lint: domain-aware static analysis for the simulator.

The simulator's headline guarantees — byte-identical serial vs parallel
sweep output, bandwidth numbers calibrated to the paper's measured GB/s
figures, zero-overhead disabled telemetry — are invariants no generic
linter knows about.  This package enforces them at the AST level:

======  ==============================================================
Rule    What it catches
======  ==============================================================
DET001  Nondeterminism in simulation code: wall-clock reads, unseeded
        ``random`` / ``np.random`` globals, ``os.urandom``.  CLI and
        bench modules (host-time measurement is their job) are
        allowlisted.
UNIT001 Raw byte-capacity / bandwidth literals (``1024**3``, ``1e9``,
        ``1000 * 1000``) outside ``repro.units`` — use ``units.GiB``,
        ``units.GB`` and :func:`repro.units.gb_per_s`.
TEL001  Telemetry hygiene: span/metric handles created at module
        scope (they would bind the process-wide handle at import
        time), or spans opened without a context manager.
EXC001  ``assert`` used for validation in library code (vanishes
        under ``python -O``) and broad ``except Exception`` outside
        declared worker/claim boundaries.
REG001  Every ``experiments/fig*.py`` / ``ablation.py`` module must be
        registered in the CLI registry and declare a ``sweep_spec``.
======  ==============================================================

Run it as ``python -m repro.analysis src/repro``; suppress an
intentional violation inline with ``# repro-lint: disable=RULE``.
"""

from repro.analysis.core import (
    AnalysisReport,
    Checker,
    Finding,
    ModuleInfo,
    Project,
    run_analysis,
)
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "ALL_CHECKERS",
    "AnalysisReport",
    "Checker",
    "Finding",
    "ModuleInfo",
    "Project",
    "render_json",
    "render_text",
    "run_analysis",
]
