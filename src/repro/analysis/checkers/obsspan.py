"""obs-span: engine phase boundaries must run under a telemetry span.

The telemetry layer (:mod:`repro.obs`) partitions a run's counters and
simulated time across a span tree; the invariant "span self-deltas sum to
the global totals" only holds if every phase-shaped entry point actually
opens a span.  A new extension/aggregation/filtering entry point that
skips the ``with ...span(...)`` wrapper silently attributes its charges to
the parent span, and the trace misleads the next person profiling it.

The rule, inside ``repro/core/`` and ``repro/obs/``: a public function
or method whose name marks it as a phase boundary —

* prefixed ``extend_``, ``seed_``, ``aggregate_``, ``filter_``,
  ``dedup_``, or
* named ``sort_and_count`` / ``out_of_core_sort``

— must contain a ``with`` statement whose context manager is a ``.span()``
call (``platform.telemetry.span(...)``, ``tel.span(...)``, ...) somewhere
in its body, or delegate to a private ``_..._impl`` twin that the public
wrapper instruments.  Helpers with a leading underscore are exempt: the
convention is *public entry span + private uninstrumented impl*.

A boundary that is deliberately uninstrumented (e.g. a trivial forwarding
shim whose target opens the span) carries a waiver with the reason:
``# gammalint: allow[obs-span] -- <where the span is opened instead>``.

obs-profile note: ``repro/obs/profile/`` is exempt wholesale.  The
profiling subpackage *analyzes* recorded span trees offline — its
functions (``aggregate_*``-shaped helpers and the like) collide
with the phase-boundary prefixes by vocabulary, not by role, and opening
spans inside the analyzer would recursively instrument the instrument.
``tests/analysis/fixtures/obsprofile.py`` pins the exemption.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..framework import Checker, LintContext, SourceModule, _package_relpath, register

#: The engine core plus the telemetry layer itself: baselines/algorithms
#: charge through the core, and the CPU baselines intentionally have no
#: span-tree story of their own.
OBS_SCOPES = ("repro/core/", "repro/obs/")

#: obs-profile exemption: the profiling subpackage analyzes span trees
#: offline; its ``aggregate_*``-shaped names are analysis vocabulary, not
#: engine phase boundaries (see module docstring).
PROFILE_EXEMPT = ("repro/obs/profile/",)

#: Name prefixes that mark a function as a phase boundary.
ENTRY_PREFIXES = ("extend_", "seed_", "aggregate_", "filter_", "dedup_")

#: Exact-name phase boundaries that the prefixes miss.
ENTRY_NAMES = frozenset({"sort_and_count", "out_of_core_sort"})


def _is_entry_point(name: str) -> bool:
    if name.startswith("_"):
        return False
    return name.startswith(ENTRY_PREFIXES) or name in ENTRY_NAMES


def _opens_span(func: ast.AST) -> bool:
    """True if any ``with`` item in ``func`` is a ``.span(...)`` call."""
    for node in ast.walk(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "span"
            ):
                return True
    return False


@register
class ObsSpanChecker(Checker):
    name = "obs-span"
    codes = ("obs-span",)
    description = (
        "engine phase boundaries (extend_*/seed_*/aggregate_*/filter_*/"
        "dedup_*/sort entry points in repro/core/ and repro/obs/, minus "
        "the offline repro/obs/profile/ analyzers) must open a telemetry "
        "span so counter and time deltas stay attributable"
    )

    def check(self, module: SourceModule, context: LintContext) -> Iterator[Diagnostic]:
        relpath = _package_relpath(module.path)
        if not relpath.startswith(OBS_SCOPES):
            return
        if relpath.startswith(PROFILE_EXEMPT):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_entry_point(node.name):
                continue
            if _opens_span(node):
                continue
            yield self.diagnostic(
                module, node, "obs-span",
                f"phase boundary `{node.name}` opens no telemetry span; "
                "wrap the body in `with <platform>.telemetry.span(...)` "
                "(or move it to a private `_" + node.name + "_impl` called "
                "from an instrumented public wrapper)",
            )
