"""SVC001 — service handlers stay thin and honest.

The HTTP front end of :mod:`repro.service` is a translation layer: it
parses requests, consults the store, and enqueues jobs.  Two failure
modes turn it into something worse:

* **Blocking in a handler.**  A handler that calls ``time.sleep`` or
  runs a simulation inline (``run_experiment``/``run_sweep``) holds one
  of a small pool of server threads for the duration — the queue,
  worker pool, and backpressure story all stop being true.  Simulation
  belongs in the worker pool.
* **Swallowing job failures.**  An ``except ...JobError: pass`` hides a
  failed or timed-out job from both the client and the retry machinery.
  Handlers must translate job errors into responses (or re-raise), not
  drop them.

The blocking rules apply inside any class derived from a
``*RequestHandler`` base; the swallow rule applies to every module.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.core import Checker, Finding, ModuleInfo, Project

#: Calls that block a handler thread or simulate inline.
_BLOCKING_CALLS = {
    "time.sleep": "sleeps on the handler thread",
    "repro.experiments.registry.run_experiment": "runs a simulation inline",
    "repro.experiments.registry.get_experiment": "resolves + runs experiments inline",
    "repro.exec.run_sweep": "runs a sweep inline",
    "repro.exec.sweep.run_sweep": "runs a sweep inline",
}


def _handler_class(module: ModuleInfo, node: ast.ClassDef) -> bool:
    """Whether a class derives (syntactically) from a request handler."""
    for base in node.bases:
        resolved = module.resolve(base)
        if resolved is not None and "RequestHandler" in resolved:
            return True
    return False


def _swallowed_exception(module: ModuleInfo, node: ast.ExceptHandler) -> Optional[str]:
    """The caught JobError name if this handler silently drops it."""
    caught = []
    if node.type is None:
        return None
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    for type_node in types:
        resolved = module.resolve(type_node)
        if resolved is None:
            continue
        name = resolved.rsplit(".", 1)[-1]
        # JobError and its subclasses (JobTimeoutError, ...).
        if name.startswith("Job") and name.endswith("Error"):
            caught.append(resolved)
    if not caught:
        return None
    body_is_noop = all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in node.body
    )
    return caught[0] if body_is_noop else None


class ServiceChecker(Checker):
    rule = "SVC001"
    description = (
        "HTTP handlers must not sleep or simulate, and nobody may "
        "silently swallow JobError"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _handler_class(module, node):
                yield from self._check_handler_body(module, node)
            elif isinstance(node, ast.ExceptHandler):
                swallowed = _swallowed_exception(module, node)
                if swallowed is not None:
                    yield self.finding(
                        module,
                        node,
                        f"except block swallows {swallowed} with an empty body; "
                        "translate job failures into a response or re-raise",
                    )

    def _check_handler_body(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved is None:
                continue
            reason = _BLOCKING_CALLS.get(resolved)
            if reason is not None:
                yield self.finding(
                    module,
                    node,
                    f"handler class {cls.name!r} calls {resolved}() which "
                    f"{reason}; submit to the job queue instead",
                )
