"""REG001 — experiment modules are registered and sweep-ready.

Cross-module rule: every ``experiments/fig*.py``, ``table*.py``,
``ablation.py``, ``dlrm.py``, ``gpt.py``, and ``kvtrace.py`` module must

* appear in the ``EXPERIMENTS`` dict of the sibling ``registry.py``,
  which maps each experiment name to the dotted name of its module
  (otherwise the CLI silently cannot run it), and
* declare its grid as data with a top-level ``sweep_spec`` function
  (otherwise ``--jobs`` cannot parallelize it and its points never
  fan out).

The results catalog adds the mirror obligation on the registry side:
every experiment *name* registered in ``EXPERIMENTS`` must have a
headline-metric hook — a matching key in the ``HEADLINES`` dict of the
sibling ``headline.py`` — or its catalog rows and report pages render
without metrics and nobody notices until the dashboard is blank.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from repro.analysis.core import Checker, Finding, ModuleInfo, Project


def _is_experiment_module(module: ModuleInfo) -> bool:
    path = module.path
    return path.parent.name == "experiments" and (
        (
            path.name.endswith(".py")
            and (path.name.startswith("fig") or path.name.startswith("table"))
        )
        or path.name in ("ablation.py", "dlrm.py", "gpt.py", "kvtrace.py")
    )


def _dict_literal(module: ModuleInfo, name: str) -> Optional[ast.Dict]:
    """The dict literal assigned to ``name`` in ``module``, if any."""
    for node in ast.walk(module.tree):
        targets = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            targets = (node.target,)
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and isinstance(node.value, ast.Dict)
            ):
                return node.value
    return None


def _strings(nodes: Iterable[Optional[ast.expr]]) -> Set[str]:
    return {
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _registered_modules(registry: ModuleInfo) -> Optional[Set[str]]:
    """Short names of the modules the EXPERIMENTS dict maps names to."""
    table = _dict_literal(registry, "EXPERIMENTS")
    if table is None:
        return None
    return {module.rpartition(".")[2] for module in _strings(table.values)}


def _string_dict_keys(module: ModuleInfo, name: str) -> Optional[Set[str]]:
    """String keys of a module-level dict literal assigned to ``name``."""
    table = _dict_literal(module, name)
    return None if table is None else _strings(table.keys)


def _declares_sweep_spec(module: ModuleInfo) -> bool:
    return any(
        isinstance(node, ast.FunctionDef) and node.name == "sweep_spec"
        for node in module.tree.body
    )


class RegistrationChecker(Checker):
    rule = "REG001"
    description = (
        "every experiments/fig*.py, table*.py, ablation.py, dlrm.py, gpt.py "
        "and kvtrace.py is registered in the CLI registry and declares a "
        "sweep_spec; every registered name has a HEADLINES hook for the catalog"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        candidates = list(project.find(_is_experiment_module))
        if not candidates:
            return
        registries = {
            module.path.parent: module
            for module in project.find(lambda m: m.path.name == "registry.py")
        }
        headlines = {
            module.path.parent: module
            for module in project.find(lambda m: m.path.name == "headline.py")
        }
        for module in candidates:
            registry = registries.get(module.path.parent)
            short = module.path.stem
            if registry is None:
                yield self.finding(
                    module,
                    module.tree,
                    "experiment module has no sibling registry.py in the scan; "
                    "include the experiments package when linting",
                )
            else:
                registered = _registered_modules(registry)
                if registered is None or short not in registered:
                    yield self.finding(
                        module,
                        module.tree,
                        f"module {short!r} is not registered in the EXPERIMENTS "
                        f"dict of {registry.rel_path}",
                    )
            if not _declares_sweep_spec(module):
                yield self.finding(
                    module,
                    module.tree,
                    "experiment module declares no top-level sweep_spec(); "
                    "declare its grid as a SweepSpec so --jobs can fan it out",
                )
        for parent, registry in sorted(registries.items()):
            yield from self._check_headline_coverage(
                registry, headlines.get(parent)
            )

    def _check_headline_coverage(
        self, registry: ModuleInfo, headline: Optional[ModuleInfo]
    ) -> Iterable[Finding]:
        registered = _string_dict_keys(registry, "EXPERIMENTS")
        if not registered:
            return
        if headline is None:
            yield self.finding(
                registry,
                registry.tree,
                "registry has no sibling headline.py in the scan; every "
                "registered experiment needs a headline-metric hook for "
                "the results catalog",
            )
            return
        hooks = _string_dict_keys(headline, "HEADLINES") or set()
        for name in sorted(registered - hooks):
            yield self.finding(
                headline,
                headline.tree,
                f"registered experiment {name!r} has no hook in the "
                f"HEADLINES dict; its catalog rows and report page would "
                "render without metrics",
            )
