"""The seven repo-specific checkers; importing this package registers them.

Adding a checker: create a module here, subclass
:class:`repro.analysis.framework.Checker`, decorate with ``@register``, and
import the module below (docs/LINTING.md walks through it).  Checkers
needing interprocedural facts (kinds, call graph) read them from
``context.flow`` (:mod:`repro.analysis.flow`).
"""

from . import (
    charge,
    determinism,
    forksafety,
    npdtype,
    obsspan,
    planorder,
    warprace,
)

__all__ = [
    "charge",
    "determinism",
    "forksafety",
    "npdtype",
    "obsspan",
    "planorder",
    "warprace",
]
