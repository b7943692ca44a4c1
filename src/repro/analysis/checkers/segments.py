"""SEG001 — cache hot paths must use the one-sort segmented engine.

The closed-form batch engine (:mod:`repro.cache.engine`) resolves
duplicate set occurrences with at most one grouping sort per batch;
the retired alternative — ``np.unique``-sorted collision rounds —
degrades toward serial cost exactly on the high-miss batches the paper
studies.  This rule keeps the legacy pattern from creeping back into
the request hot paths:

* no ``np.unique`` calls inside ``llc_read``/``llc_write``/``prime``/
  ``contains`` (or a legacy ``_read_round``/``_write_round``) — those
  paths run per batch and must lean on
  :func:`repro.perf.segments.segment` / the model's ``BatchSegmenter``;
* no ``.rounds()``/``._rounds()`` loops in those functions — the one
  model without a closed form (LRU) keeps its run-bounded round loop
  inside the engine functions, not in the model hot path;
* no defining the legacy per-round hooks ``_read_round``/
  ``_write_round``/``_rounds`` at all — variants customize via the
  engine-level ``_apply_read``/``_apply_write`` hooks instead.  This
  prong is the one that catches a per-round engine whose ``llc_read``
  loops a module-level round helper, which the other two cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterable, Union

from repro.analysis.core import Checker, Finding, ModuleInfo, Project

#: Per-batch request functions that must stay on the segmented engine.
_HOT_FUNCTIONS = {
    "llc_read",
    "llc_write",
    "prime",
    "contains",
    "_read_round",
    "_write_round",
}

#: The legacy per-round hook surface, banned everywhere.
_LEGACY_HOOKS = {"_read_round", "_write_round", "_rounds"}

#: Attribute calls that iterate collision rounds.
_ROUND_ITERATORS = {"rounds", "_rounds"}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class SegmentsChecker(Checker):
    rule = "SEG001"
    description = (
        "no np.unique or round loops in cache hot paths "
        "(llc_read/llc_write/prime/contains) and no per-round hooks; "
        "closed-form segmented engine only"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in _LEGACY_HOOKS:
                yield self.finding(
                    module,
                    func,
                    f"legacy round hook {func.name}() defined; customize "
                    "batches via the engine-level _apply_read/_apply_write "
                    "hooks",
                )
            if func.name in _HOT_FUNCTIONS:
                yield from self._check_hot_function(module, func)

    def _check_hot_function(
        self, module: ModuleInfo, func: _FunctionNode
    ) -> Iterable[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved == "numpy.unique":
                yield self.finding(
                    module,
                    node,
                    f"np.unique in hot path {func.name}(): one sort per "
                    "call; group the batch once via repro.perf.segments "
                    "(the model's BatchSegmenter)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _ROUND_ITERATORS
            ):
                yield self.finding(
                    module,
                    node,
                    f"round loop in hot path {func.name}(): resolve "
                    "duplicates closed-form in repro.cache.engine, or keep "
                    "the run-bounded loop inside the engine function",
                )
