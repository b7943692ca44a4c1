"""The rule catalogue.

Adding a checker: subclass :class:`repro.analysis.core.Checker`, set
``rule`` and ``description``, implement ``check_module`` and/or
``check_project``, and append the class to :data:`ALL_CHECKERS`.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.core import Checker
from repro.analysis.checkers.architecture import ArchitectureChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exceptions import ExceptionChecker
from repro.analysis.checkers.locks import LockGuardChecker, LockOrderChecker
from repro.analysis.checkers.registration import RegistrationChecker
from repro.analysis.checkers.segments import SegmentsChecker
from repro.analysis.checkers.service import ServiceChecker
from repro.analysis.checkers.telemetry import TelemetryChecker
from repro.analysis.checkers.units import UnitsChecker

ALL_CHECKERS: List[Type[Checker]] = [
    DeterminismChecker,
    UnitsChecker,
    TelemetryChecker,
    ExceptionChecker,
    RegistrationChecker,
    ServiceChecker,
    SegmentsChecker,
    ArchitectureChecker,
    LockGuardChecker,
    LockOrderChecker,
]


__all__ = [
    "ALL_CHECKERS",
    "ArchitectureChecker",
    "DeterminismChecker",
    "LockGuardChecker",
    "LockOrderChecker",
    "ExceptionChecker",
    "RegistrationChecker",
    "SegmentsChecker",
    "ServiceChecker",
    "TelemetryChecker",
    "UnitsChecker",
]
