"""EXC001 — exception discipline in library code.

``assert`` disappears under ``python -O``: a validation written as an
assert is a validation the production interpreter never runs.  Library
code raises typed exceptions from :mod:`repro.errors` instead.

Broad ``except Exception`` (or bare ``except``) handlers swallow
programming errors.  Two shapes are legitimate and recognized:

* a handler whose body re-raises with a bare ``raise`` (cleanup
  barriers) passes automatically;
* a declared boundary — a sweep worker barrier, a service worker —
  carries an inline ``# repro-lint: disable=EXC001`` with a reason.

Test modules (``test_*``/``conftest`` files and anything under a
``tests``/``benchmarks`` tree) are exempt from the *assert* prong only:
``assert`` is pytest's assertion API, rewritten by the plugin, and the
``-O`` hazard does not apply.  The broad-except prong still runs there.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Checker, Finding, ModuleInfo, Project

_BROAD = {"Exception", "BaseException"}


def _is_test_module(module: ModuleInfo) -> bool:
    name = module.path.name
    if name.startswith("test_") or name == "conftest.py":
        return True
    return any(part in ("tests", "benchmarks") for part in module.path.parts)


def _broad_names(handler: ast.ExceptHandler, module: ModuleInfo) -> Iterable[str]:
    if handler.type is None:
        yield "bare except"
        return
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in types:
        resolved = module.resolve(node)
        if resolved in _BROAD:
            yield f"except {resolved}"


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


class ExceptionChecker(Checker):
    rule = "EXC001"
    description = (
        "no assert-as-validation in library code and no broad except "
        "outside declared boundaries"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        in_tests = _is_test_module(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                if in_tests:
                    continue
                yield self.finding(
                    module,
                    node,
                    "assert vanishes under python -O; raise a typed exception "
                    "from repro.errors",
                )
            elif isinstance(node, ast.ExceptHandler) and not _reraises(node):
                for label in _broad_names(node, module):
                    yield self.finding(
                        module,
                        node,
                        f"{label} swallows programming errors; catch specific "
                        "types or declare the boundary with a suppression",
                    )
