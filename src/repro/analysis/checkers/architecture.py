"""ARC001 — the declared layer DAG and import-cycle freedom.

The tree is layered; higher layers may import lower ones, never the
reverse:

====== ============== =================================================
layer  name           packages
====== ============== =================================================
0      foundation     units, errors, config
1      observability  obs, perf
2      simulation     memsys, cache, kernels, nn, graphs, autotm, cpu,
                      recsys, traces
3      orchestration  experiments, exec
4      serving        service, report, analysis
====== ============== =================================================

Within a layer imports are unconstrained (service may import report).
An upward import couples hot simulation code to the serving stack —
exactly the dependency direction that makes the simulator untestable in
isolation and drags HTTP machinery into worker processes.

Two finding shapes:

* **layer violation** — an import whose target package sits in a higher
  layer than the source package, anchored at the import statement (so
  an inline ``# repro-lint: disable=ARC001`` on that line silences it).
  Declared composition roots (:data:`ENTRY_POINTS`) are exempt: wiring
  every layer together is their job.  ``if TYPE_CHECKING:`` imports are
  exempt: they never execute.
* **import cycle** — a strongly connected component among the scanned
  modules' import-time edges.  Lazy (function-scope) imports do not
  participate; moving an import into the function that needs it is the
  sanctioned cycle break.

A repro package missing from the table is itself a finding: the DAG is
only a contract while it is total.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.core import Checker, Finding, ModuleInfo, Project
from repro.analysis.graph import SCOPE_MODULE, SCOPE_TYPE_CHECKING, ImportEdge

#: layer index -> (name, packages).  Order is the contract.
LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("foundation", ("units", "errors", "config")),
    ("observability", ("obs", "perf")),
    (
        "simulation",
        (
            "memsys",
            "cache",
            "kernels",
            "nn",
            "graphs",
            "autotm",
            "recsys",
            "traces",
        ),
    ),
    ("orchestration", ("experiments", "exec")),
    ("serving", ("service", "report", "analysis")),
]

#: package name -> (layer index, layer name)
LAYER_OF: Dict[str, Tuple[int, str]] = {
    package: (index, name)
    for index, (name, packages) in enumerate(LAYERS)
    for package in packages
}

#: Composition roots: modules whose job is wiring every layer together
#: (CLI entry points).  Exempt from the upward-import check, still part
#: of cycle detection.
ENTRY_POINTS = frozenset({"repro.experiments.cli"})


def package_of(module: str) -> Optional[str]:
    """Top-level repro package of a dotted module name, if any.

    ``repro.cache.engine`` -> ``cache``; the root ``repro`` package and
    non-repro modules have no layer and return None.
    """
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


class ArchitectureChecker(Checker):
    rule = "ARC001"
    description = (
        "imports respect the declared layer DAG (foundation -> observability "
        "-> simulation -> orchestration -> serving) and the import-time "
        "module graph is cycle-free"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        by_module = {info.module: info for info in project.modules}

        unknown_seen: Dict[str, Finding] = {}
        for edge in graph.import_edges():
            if edge.scope == SCOPE_TYPE_CHECKING:
                continue
            source_info = by_module.get(edge.source)
            if source_info is None:
                continue
            yield from self._check_edge(source_info, edge, unknown_seen)
        for package in sorted(unknown_seen):
            yield unknown_seen[package]

        yield from self._check_cycles(graph, by_module)

    def _check_edge(
        self,
        source_info: ModuleInfo,
        edge: ImportEdge,
        unknown_seen: Dict[str, Finding],
    ) -> Iterable[Finding]:
        source_pkg = package_of(edge.source)
        target_pkg = package_of(edge.target)
        if source_pkg is None or target_pkg is None or source_pkg == target_pkg:
            return
        for package in (source_pkg, target_pkg):
            if package not in LAYER_OF and package not in unknown_seen:
                unknown_seen[package] = Finding(
                    path=source_info.rel_path,
                    line=edge.lineno,
                    col=edge.col,
                    rule=self.rule,
                    message=(
                        f"package 'repro.{package}' is not assigned to a "
                        "layer; declare it in the LAYERS table of "
                        "repro.analysis.checkers.architecture"
                    ),
                )
        if source_pkg not in LAYER_OF or target_pkg not in LAYER_OF:
            return
        if edge.source in ENTRY_POINTS:
            return
        source_layer, source_name = LAYER_OF[source_pkg]
        target_layer, target_name = LAYER_OF[target_pkg]
        if target_layer > source_layer:
            yield Finding(
                path=source_info.rel_path,
                line=edge.lineno,
                col=edge.col,
                rule=self.rule,
                message=(
                    f"layer violation: 'repro.{source_pkg}' "
                    f"(layer {source_layer}, {source_name}) must not import "
                    f"'{edge.target}' (layer {target_layer}, {target_name})"
                ),
            )

    def _check_cycles(
        self, graph, by_module: Dict[str, ModuleInfo]
    ) -> Iterable[Finding]:
        for cycle in graph.import_cycles():
            members = set(cycle)
            anchor = cycle[0]  # members are sorted; first is the anchor
            info = by_module.get(anchor)
            if info is None:
                continue
            edge = next(
                (
                    e
                    for e in graph.nodes[anchor].imports
                    if e.scope == SCOPE_MODULE and e.target in members
                ),
                None,
            )
            chain = " -> ".join(cycle + [anchor])
            yield Finding(
                path=info.rel_path,
                line=edge.lineno if edge else 1,
                col=edge.col if edge else 1,
                rule=self.rule,
                message=(
                    f"import cycle: {chain}; break it by moving one import "
                    "into the function that needs it"
                ),
            )
