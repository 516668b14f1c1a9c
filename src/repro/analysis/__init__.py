"""gammalint — AST-based invariant checks for the GAMMA reproduction.

The simulator's correctness rests on conventions no type checker sees:
adjacency reads must be *charged* (or the §IV clocks undercount),
hot-module NumPy code must pin dtypes and guard packed-key overflow, and
per-warp loops must not race on shared simulator state — not even
transitively through helper calls.  An interprocedural dataflow layer
(:mod:`repro.analysis.flow`: project symbol table, call graph, value-kind
fixpoint) additionally guards process-boundary safety (fork-hostile
state into pickle/Process/pool sinks) and determinism (unordered
iteration, order-sensitive float sums, ambient seeds and host clocks).
This package enforces those invariants mechanically:

* ``python -m repro.analysis src/`` — lint a tree (exit 1 on findings);
* ``tools/lint.py`` — the CI entry point (gammalint + ruff + mypy);
* ``# gammalint: allow[<code>] -- <reason>`` — per-line waiver;
* docs/LINTING.md — checker catalog and how to add one.

The framework is stdlib-only (``ast`` + ``re``), fixture-tested in
``tests/analysis/``.
"""

from .diagnostics import Diagnostic
from .framework import (
    Checker,
    LintContext,
    SourceModule,
    all_checkers,
    format_human,
    format_json,
    format_sarif,
    known_codes,
    lint_module,
    lint_paths,
    lint_source,
    register,
)
from .waivers import Waiver, WaiverSet

__all__ = [
    "Checker",
    "Diagnostic",
    "LintContext",
    "SourceModule",
    "Waiver",
    "WaiverSet",
    "all_checkers",
    "format_human",
    "format_json",
    "format_sarif",
    "known_codes",
    "lint_module",
    "lint_paths",
    "lint_source",
    "register",
]
