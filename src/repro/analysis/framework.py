"""gammalint's chassis: source modules, checker registry, runner, output.

The linter is deliberately self-contained (stdlib ``ast`` + ``re`` only) so
it can run in CI before any optional tooling is installed.  Checkers are
small classes registered with :func:`register`; each gets a parsed
:class:`SourceModule` plus the repo-wide :class:`LintContext` and yields
:class:`~repro.analysis.diagnostics.Diagnostic` records.  Waivers are
applied centrally here, so no checker needs waiver logic of its own.
"""

from __future__ import annotations

import ast
import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Type

from .diagnostics import Diagnostic
from .flow import FlowProject, build_project
from .waivers import META_CODES, WaiverSet

# ---------------------------------------------------------------------------
# Repo layout scopes.  Paths are matched on their ``repro/...`` suffix so the
# linter works from any checkout root (and on fixture files that *pretend*
# to live in the package — see tests/analysis).
# ---------------------------------------------------------------------------

#: Modules that drive the simulator: every device-visible graph read here
#: must route through the charging APIs.
ENGINE_SCOPES = ("repro/core/", "repro/algorithms/", "repro/baselines/")

#: Wall-clock hot modules: dtype discipline and overflow guards required.
HOT_SCOPES = ("repro/core/", "repro/gpusim/", "repro/graph/csr.py")


def _package_relpath(path: str) -> str:
    """The ``repro/...`` suffix of ``path`` (empty if outside the package)."""
    posix = pathlib.PurePath(path).as_posix()
    marker = "repro/"
    idx = posix.rfind(marker)
    return posix[idx:] if idx >= 0 else ""


def in_engine_scope(path: str) -> bool:
    return _package_relpath(path).startswith(ENGINE_SCOPES)


def in_hot_scope(path: str) -> bool:
    return _package_relpath(path).startswith(HOT_SCOPES)


# ---------------------------------------------------------------------------
# Parsed inputs
# ---------------------------------------------------------------------------


class SourceModule:
    """One parsed source file: text, AST (with parent links), waivers."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self.waivers = WaiverSet(path, text)
        self._parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

    @classmethod
    def from_path(cls, path: pathlib.Path, root: pathlib.Path | None = None) -> "SourceModule":
        display = str(path)
        if root is not None:
            try:
                display = str(path.relative_to(root))
            except ValueError:
                pass
        return cls(display, path.read_text())

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def enclosing_function(self, node: ast.AST) -> ast.FunctionDef | None:
        """Innermost function/method containing ``node`` (or ``None``)."""
        current = self.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parent(current)
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        current = self.parent(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = self.parent(current)
        return None


@dataclass
class LintContext:
    """Repo-wide facts shared by all checkers."""

    #: The interprocedural dataflow project built over every module of
    #: this lint run (symbol table, call graph, value kinds).  The runner
    #: always populates it; ``field`` keeps dataclass defaults happy for
    #: direct construction in tests.
    flow: "FlowProject | None" = field(default=None, compare=False)
    #: Report module-level waivers none of whose codes suppressed
    #: anything this run (``--check-waivers``).
    check_waivers: bool = False


# ---------------------------------------------------------------------------
# Checker registry
# ---------------------------------------------------------------------------


class Checker:
    """Base class: subclass, set the class attributes, implement check()."""

    #: Stable registry key (kebab-case).
    name: str = ""
    #: Diagnostic codes this checker can emit (the waiver vocabulary).
    codes: tuple = ()
    #: One-line description shown by ``--list-checkers``.
    description: str = ""

    def check(self, module: SourceModule, context: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, module: SourceModule, node: ast.AST, code: str,
                   message: str) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
            checker=self.name,
        )


_REGISTRY: dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name or not cls.codes:
        raise ValueError(f"checker {cls.__name__} must define name and codes")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, stable order."""
    from . import checkers as _checkers  # noqa: F401  (side-effect import)
    return [_REGISTRY[name]() for name in sorted(_REGISTRY)]


def known_codes() -> frozenset:
    """Every waivable diagnostic code plus the waiver meta-codes."""
    codes = set(META_CODES)
    for checker in all_checkers():
        codes.update(checker.codes)
    return frozenset(codes)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def lint_module(module: SourceModule, context: LintContext,
                checkers: Sequence[Checker] | None = None,
                select: Iterable[str] | None = None) -> list[Diagnostic]:
    """All surviving diagnostics for one module (waivers applied)."""
    if context.flow is None:
        context.flow = build_project([module])
    checkers = list(checkers) if checkers is not None else all_checkers()
    selected = frozenset(select) if select else None
    out: list[Diagnostic] = []
    for checker in checkers:
        for diag in checker.check(module, context):
            if selected is not None and diag.code not in selected:
                continue
            if module.waivers.suppresses(diag.code, diag.line):
                continue
            out.append(diag)
    if selected is None:
        out.extend(module.waivers.problems(
            known_codes(), check_stale=context.check_waivers))
    return sorted(out)


def lint_source(text: str, path: str = "<string>",
                select: Iterable[str] | None = None,
                check_waivers: bool = False) -> list[Diagnostic]:
    """Lint an in-memory snippet as if it lived at ``path``.

    The fixture harness drives this; ``path`` decides checker scopes.
    The flow project is built from the single snippet, so interprocedural
    checkers see exactly its module-local call graph.
    """
    module = SourceModule(path, text)
    context = LintContext(check_waivers=check_waivers)
    return lint_module(module, context, select=select)


def iter_python_files(paths: Sequence[pathlib.Path]) -> Iterator[pathlib.Path]:
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part.startswith(".") for part in sub.parts):
                    continue
                yield sub
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[pathlib.Path],
               select: Iterable[str] | None = None,
               root: pathlib.Path | None = None,
               check_waivers: bool = False,
               only_files: "set[str] | None" = None) -> list[Diagnostic]:
    """Lint every Python file under ``paths``; returns sorted diagnostics.

    Two phases: every file is parsed first so the interprocedural flow
    project (symbol table, call graph, kinds) spans the whole run, then
    checkers execute per module.  ``only_files`` restricts which modules
    are *checked* (``--changed``) while the flow project still covers the
    full path set — cross-file resolution must not depend on what
    happens to be in the diff.
    """
    context = LintContext(check_waivers=check_waivers)
    checkers = all_checkers()
    out: list[Diagnostic] = []
    modules: list[SourceModule] = []
    for file_path in iter_python_files(paths):
        try:
            modules.append(SourceModule.from_path(file_path, root=root))
        except SyntaxError as exc:
            out.append(Diagnostic(
                path=str(file_path), line=exc.lineno or 1, col=1,
                code="syntax-error", message=str(exc.msg), checker="framework",
            ))
    context.flow = build_project(modules)
    for module in modules:
        if only_files is not None and _resolved(module.path) not in only_files:
            continue
        out.extend(lint_module(module, context, checkers, select=select))
    return sorted(out)


def _resolved(path: str) -> str:
    return str(pathlib.Path(path).resolve())


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def format_human(diagnostics: Sequence[Diagnostic]) -> str:
    """One ``path:line:col: [code] message`` line each, plus a count."""
    lines = [d.format() for d in diagnostics]
    noun = "diagnostic" if len(diagnostics) == 1 else "diagnostics"
    lines.append(f"gammalint: {len(diagnostics)} {noun}")
    return "\n".join(lines)


def format_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Machine-readable report: ``{diagnostics: [...], count: N}``."""
    return json.dumps(
        {
            "diagnostics": [d.to_json() for d in diagnostics],
            "count": len(diagnostics),
        },
        indent=2,
    )


def format_sarif(diagnostics: Sequence[Diagnostic]) -> str:
    """SARIF 2.1.0 report — what GitHub code scanning ingests.

    One run, one rule per distinct diagnostic code, one result per
    finding; CI uploads this so findings surface as PR annotations.
    """
    rules: dict[str, dict] = {}
    by_checker: dict[str, str] = {}
    for checker in all_checkers():
        for code in checker.codes:
            by_checker[code] = checker.description
    results = []
    for diag in diagnostics:
        if diag.code not in rules:
            rules[diag.code] = {
                "id": diag.code,
                "shortDescription": {
                    "text": by_checker.get(diag.code, diag.code),
                },
            }
        results.append({
            "ruleId": diag.code,
            "level": "error",
            "message": {"text": diag.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": pathlib.PurePath(diag.path).as_posix(),
                    },
                    "region": {
                        "startLine": diag.line,
                        "startColumn": max(diag.col, 1),
                    },
                },
            }],
        })
    return json.dumps(
        {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "gammalint",
                        "rules": [rules[c] for c in sorted(rules)],
                    },
                },
                "results": results,
            }],
        },
        indent=2,
    )
