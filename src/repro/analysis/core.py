"""Checker API, parsed-module cache, and the analysis driver.

The framework parses every file exactly once into a :class:`ModuleInfo`
(AST + per-file symbol info + inline suppressions) shared by all
checkers through a :class:`Project`.  Checkers are small classes with
two hooks: ``check_module`` runs per file, ``check_project`` runs once
after every file is loaded (for cross-module rules like REG001).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError

#: Inline suppression: ``# repro-lint: disable=EXC001`` (comma-separated
#: for several rules).  It silences findings on its own physical line.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


class AnalysisError(ReproError):
    """The analysis pass itself failed (unreadable path, syntax error)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # posix-style, relative to the working directory
    line: int
    col: int
    rule: str
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """One parsed source file plus its per-file symbol information."""

    path: Path
    rel_path: str
    module: str
    source: str
    tree: ast.Module
    #: physical line -> rule ids suppressed on that line.
    suppressions: Dict[int, Set[str]]
    _imports: Optional[Dict[str, str]] = field(default=None, repr=False)

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> dotted qualified name, from every import statement."""
        if self._imports is None:
            self._imports = _collect_imports(self.tree)
        return self._imports

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a ``Name``/``Attribute`` chain to a dotted name.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the file ran
        ``import numpy as np``; unknown roots resolve through their
        literal name, so builtins like ``Exception`` come back as-is.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.suppressions.get(finding.line, ())


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                names[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports are not used in this tree
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                names[local] = f"{node.module}.{alias.name}" if node.module else alias.name
    return names


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = {rule.strip() for rule in match.group(1).split(",")}
            suppressions.setdefault(lineno, set()).update(rules)
    return suppressions


def module_name_for(path: Path) -> str:
    """Dotted module name, derived by walking up through ``__init__.py``s."""
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


class Project:
    """Shared parsed-module cache handed to every checker."""

    def __init__(self) -> None:
        self._by_path: Dict[Path, ModuleInfo] = {}

    def load(self, path: Path) -> ModuleInfo:
        resolved = path.resolve()
        cached = self._by_path.get(resolved)
        if cached is not None:
            return cached
        try:
            source = resolved.read_text()
        except OSError as error:
            raise AnalysisError(f"cannot read {path}: {error}") from error
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            raise AnalysisError(f"cannot parse {path}: {error}") from error
        info = ModuleInfo(
            path=resolved,
            rel_path=_relative(resolved),
            module=module_name_for(resolved),
            source=source,
            tree=tree,
            suppressions=_parse_suppressions(source),
        )
        self._by_path[resolved] = info
        return info

    @property
    def modules(self) -> List[ModuleInfo]:
        return sorted(self._by_path.values(), key=lambda m: m.rel_path)

    def find(self, predicate) -> Iterator[ModuleInfo]:
        return (module for module in self.modules if predicate(module))

    def graph(self):
        """The whole-program :class:`~repro.analysis.graph.ProjectGraph`.

        Built on first use from every currently-loaded module and
        cached; rebuilt if more files load afterwards.  Project-level
        checkers run after all files are parsed, so they always see the
        complete graph.
        """
        from repro.analysis.graph import graph_for

        return graph_for(self)


def _relative(path: Path) -> str:
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


class Checker:
    """Base class for one lint rule.

    Subclasses set ``rule`` and ``description`` and override
    ``check_module`` (per-file) and/or ``check_project`` (cross-module,
    runs once after every file is parsed).
    """

    rule: str = ""
    description: str = ""

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule,
            message=message,
        )


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, reporter-ready."""

    findings: List[Finding]
    suppressed: List[Finding]
    files: int

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_source_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise AnalysisError(f"not a python file or directory: {path}")
    seen: Set[Path] = set()
    unique: List[Path] = []
    for candidate in files:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(candidate)
    return unique


def run_analysis(
    paths: Sequence[Path],
    checkers: Optional[Sequence[Checker]] = None,
) -> AnalysisReport:
    """Run every checker over every file under ``paths``."""
    from repro.analysis.checkers import ALL_CHECKERS

    active = list(checkers) if checkers is not None else [cls() for cls in ALL_CHECKERS]
    project = Project()
    modules = [project.load(path) for path in iter_source_files(paths)]

    raw: List[Finding] = []
    for module in modules:
        for checker in active:
            raw.extend(checker.check_module(module, project))
    for checker in active:
        raw.extend(checker.check_project(project))

    by_rel = {module.rel_path: module for module in modules}
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        module = by_rel.get(finding.path)
        if module is not None and module.suppressed(finding):
            suppressed.append(finding)
        else:
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    suppressed.sort(key=lambda f: f.sort_key)
    return AnalysisReport(findings=findings, suppressed=suppressed, files=len(modules))
