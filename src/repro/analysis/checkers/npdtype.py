"""numpy-dtype: dtype discipline and overflow guards.

Two rules, all scoped to the wall-clock hot modules (``repro/core/``,
``repro/gpusim/``, ``repro/graph/csr.py``):

* ``dtype`` — ``np.arange``/``np.zeros``/``np.empty``/``np.ones``/
  ``np.full`` without an explicit ``dtype``.  NumPy's platform-dependent
  defaults are how int32-on-Windows bugs and accidental float64 promotion
  sneak into index arithmetic; hot modules spell the dtype out.
* ``overflow`` — packed-key arithmetic (a multiply by an ``np.int64(...)``
  cast, or a left shift by >= 16 bits) in a function with no visible
  overflow guard.  A guard is an ``if``/``assert``/``while`` test naming a
  limit-like identifier (``*LIMIT*``, ``*MAX*``, ``*BOUND*``, ``iinfo``,
  ``overflow``).  Packing ``(row, value)`` into one int64 silently wraps
  past 2**63 — the guard (or a reasoned waiver) proves someone did the
  arithmetic.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..diagnostics import Diagnostic
from ..framework import Checker, LintContext, SourceModule, in_hot_scope, register

#: Constructors whose dtype must be explicit (keyword, or positional where
#: the signature places dtype second/third: zeros/empty/ones(shape, dtype),
#: full(shape, fill, dtype)).  ``*_like`` variants inherit and are exempt.
_DTYPE_CALLS = {"arange": None, "zeros": 2, "empty": 2, "ones": 2, "full": 3}

_GUARD_NAME = re.compile(r"(?i)(limit|max|bound|overflow|iinfo)")

_SHIFT_THRESHOLD = 16


def _np_call(node: ast.AST) -> str | None:
    """Attribute name for an ``np.<name>(...)`` call, else ``None``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ):
        return node.func.attr
    return None


def _is_packing(node: ast.AST) -> bool:
    """Whether ``node`` is a packed-key arithmetic expression."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return any(
            _np_call(operand) == "int64" for operand in (node.left, node.right)
        )
    if isinstance(node.op, ast.LShift):
        # A literal << literal (e.g. ``1 << 62`` defining a limit) is
        # constant-folded in arbitrary-precision Python ints — no array
        # arithmetic, no overflow.
        return (
            not isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
            and isinstance(node.right.value, int)
            and node.right.value >= _SHIFT_THRESHOLD
        )
    return False


def _has_guard(func: ast.AST) -> bool:
    """A limit-like identifier in any if/assert/while test of ``func``."""
    tests = []
    for node in ast.walk(func):
        if isinstance(node, (ast.If, ast.While)):
            tests.append(node.test)
        elif isinstance(node, ast.Assert):
            tests.append(node.test)
        elif isinstance(node, ast.IfExp):
            tests.append(node.test)
    for test in tests:
        for sub in ast.walk(test):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and _GUARD_NAME.search(name):
                return True
    return False


@register
class NumpyDtypeChecker(Checker):
    name = "numpy-dtype"
    codes = ("dtype", "overflow")
    description = (
        "hot modules need explicit dtypes and overflow guards around "
        "packed keys"
    )

    def check(self, module: SourceModule, context: LintContext) -> Iterator[Diagnostic]:
        if not in_hot_scope(module.path):
            return
        yield from self._check_dtypes(module)
        yield from self._check_packing(module)

    def _check_dtypes(self, module: SourceModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            name = _np_call(node)
            if name not in _DTYPE_CALLS:
                continue
            positional_slot = _DTYPE_CALLS[name]
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or (
                positional_slot is not None and len(node.args) >= positional_slot
            )
            if not has_dtype:
                yield self.diagnostic(
                    module, node, "dtype",
                    f"`np.{name}` without an explicit dtype in a hot "
                    "module; spell it out (platform-default dtypes are "
                    "how index-arithmetic bugs start)",
                )

    def _check_packing(self, module: SourceModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not _is_packing(node):
                continue
            func = module.enclosing_function(node)
            if func is not None and _has_guard(func):
                continue
            yield self.diagnostic(
                module, node, "overflow",
                "packed-key int64 arithmetic with no overflow guard in "
                "the enclosing function; bound the operands (compare "
                "against a *_LIMIT / np.iinfo value) or waive with the "
                "reason the packing cannot wrap",
            )
