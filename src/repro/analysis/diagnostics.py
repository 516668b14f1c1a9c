"""Diagnostic records produced by gammalint checkers.

A diagnostic pins one invariant violation to a ``path:line:col`` location.
Codes are short stable slugs (``charge``, ``dtype``, ``warp-race``, ...)
that double as the waiver vocabulary: a line comment
``# gammalint: allow[<code>] -- <reason>`` suppresses exactly that code on
that line (see :mod:`repro.analysis.waivers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, ordered by location for stable output."""

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)
    checker: str = field(default="", compare=False)

    def format(self) -> str:
        """Human-readable one-liner (``path:line:col: code message``)."""
        return f"{self.path}:{self.line}:{self.col}: [{self.code}] {self.message}"

    def to_json(self) -> dict:
        """JSON-serializable mapping (the ``--format json`` record)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "checker": self.checker,
        }
