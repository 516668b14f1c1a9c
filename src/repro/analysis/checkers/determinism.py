"""determinism: bit-identical manifests tolerate no ambient ordering.

The differential harness (tests/oracle.py, the shard determinism suite)
pins byte-identical manifests and crash/resume bit-parity.  Three ambient
nondeterminism sources statically visible in Python survive every
single-run test and break only across processes, hash seeds, or resumes:

* **arbitrary iteration order** (code ``det-order``): looping over a
  ``set``/``frozenset``, ``os.listdir``/``glob`` results, or set-algebra
  products — anywhere the loop's effects can feed accounting,
  aggregation, exchange or manifest content — without an intervening
  ``sorted(...)``.  Order-insensitive consumers (``len``, ``min``,
  ``max``, ``any``, ``sum`` of ints, membership tests) are fine and not
  flagged; *iteration* is the hazard.  The dataflow engine tracks the
  ``unordered-collection`` kind through assignments, returns and calls,
  so a set returned three functions away is still caught at the loop.
* **order-sensitive float reduction** (code ``det-float``): builtin
  ``sum(...)`` over a ``float-accumulator`` mapping's values (clock
  buckets, per-phase seconds).  Float addition does not associate;
  insertion order differs between a live run and a checkpoint-restored
  run.  Route these through ``math.fsum`` (exactly-rounded, hence
  order-independent) like ``SimClock.total`` does.
* **ambient seeds and wall clocks in engine scope** (code ``det-seed``):
  module-level ``random.*`` calls (unseeded global stream) or
  ``time.time``/``time.perf_counter`` inside the simulated-accounting
  scopes.  Simulated time comes from the cost model; host time and
  unseeded randomness there make simulated results unrepeatable.

Scope: ``det-order`` everywhere in the package; ``det-float`` in the
accounting scopes (:data:`FLOAT_SCOPES`); ``det-seed`` in the engine
scopes.  Wall-clock profilers (PhaseTimer) waive ``det-seed`` with a
reason — the *host* clock is their subject matter.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..flow import kinds as K
from ..framework import (
    Checker,
    LintContext,
    SourceModule,
    _package_relpath,
    in_engine_scope,
    register,
)
from ..flow.symbols import _dotted

#: Where float reductions feed simulated accounting or its reporting.
FLOAT_SCOPES = (
    "repro/gpusim/", "repro/obs/", "repro/shard/", "repro/resilience/",
    "repro/core/", "repro/cli.py",
)

#: Names whose float sums are accounting-critical even when the dataflow
#: engine cannot prove the ``float-accumulator`` kind (values that came
#: out of a parsed manifest, say).  Matched against the summed
#: expression's source text.
FLOAT_HINT_NAMES = ("bucket", "seconds", "sim_", "_by_category", "elapsed")

#: ``random`` module functions drawing from the unseeded global stream.
GLOBAL_RANDOM = frozenset({
    "random", "randint", "randrange", "shuffle", "choice", "choices",
    "sample", "uniform", "gauss", "betavariate", "seed",
})

#: Host-clock reads that must not feed simulated accounting.
HOST_CLOCKS = frozenset({
    "time.time", "time.perf_counter", "time.monotonic",
    "time.process_time", "time.time_ns", "time.perf_counter_ns",
    "time.monotonic_ns",
})


def in_float_scope(path: str) -> bool:
    return _package_relpath(path).startswith(FLOAT_SCOPES)


@register
class DeterminismChecker(Checker):
    name = "determinism"
    codes = ("det-order", "det-float", "det-seed")
    description = (
        "no arbitrary-order iteration (sets, listdir/glob) feeding "
        "accounting/aggregation/manifests, no order-sensitive float sums "
        "in clock paths (use math.fsum), no ambient seeds/host clocks in "
        "engine scope"
    )

    def check(self, module: SourceModule, context: LintContext) -> Iterator[Diagnostic]:
        flow = context.flow
        if flow is None or not _package_relpath(module.path):
            return
        yield from self._check_order(module, flow)
        if in_float_scope(module.path):
            yield from self._check_float_sums(module, flow)
        if in_engine_scope(module.path):
            yield from self._check_seeds(module)

    # -- det-order ----------------------------------------------------------

    def _check_order(self, module: SourceModule, flow) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            iter_expr = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # Only the outermost generator's order escapes into the
                # built container; inner ones are flagged via their own
                # comprehension nodes when reached by ast.walk.
                iter_expr = node.generators[0].iter
            if iter_expr is None:
                continue
            if self._order_insensitive_context(module, node):
                continue
            if K.UNORDERED in flow.kinds(iter_expr):
                yield self.diagnostic(
                    module, iter_expr, "det-order",
                    "iterating an unordered collection (set/listdir/glob) "
                    "here makes downstream accounting, aggregation or "
                    "manifest content order-dependent; wrap the source in "
                    "sorted(...)",
                )

    @staticmethod
    def _order_insensitive_context(module: SourceModule, node: ast.AST) -> bool:
        """Comprehension/loop results consumed order-insensitively.

        ``sorted({...for...})``, ``len([... for ...])``, ``set(...)``
        and friends neutralize the iteration order before it can leak.
        A SetComp is itself unordered output — its *own* iteration order
        never matters (the set forgets it); it is flagged only where
        eventually iterated.
        """
        if isinstance(node, ast.SetComp):
            return True
        parent = module.parent(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            name = parent.func.id
            if (name in K.ORDER_INSENSITIVE_CONSUMERS
                    or name in K.ORDER_SANITIZERS
                    or name in ("set", "frozenset", "dict")):
                return True
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Attribute):
            if parent.func.attr == "fsum":
                return True
        return False

    # -- det-float ----------------------------------------------------------

    def _check_float_sums(self, module: SourceModule, flow) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"
                    and node.args):
                continue
            arg = node.args[0]
            kinds = flow.kinds(arg)
            hinted = K.FLOAT_ACC in kinds or self._float_hinted(arg)
            if hinted:
                yield self.diagnostic(
                    module, node, "det-float",
                    "builtin sum() over float accumulator values is "
                    "insertion-order dependent (float addition does not "
                    "associate) and breaks checkpoint/resume bit-parity; "
                    "use math.fsum(...) — exactly rounded, order-free",
                )

    @staticmethod
    def _float_hinted(arg: ast.AST) -> bool:
        """``sum(x.values())`` where x's name smells like float buckets."""
        if not (isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "values"):
            return False
        base = _dotted(arg.func.value).lower()
        return any(hint in base for hint in FLOAT_HINT_NAMES)

    # -- det-seed -----------------------------------------------------------

    def _check_seeds(self, module: SourceModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted:
                continue
            if dotted in HOST_CLOCKS:
                yield self.diagnostic(
                    module, node, "det-seed",
                    f"`{dotted}()` reads the host clock inside engine "
                    "scope; simulated accounting must come from the cost "
                    "model (SimClock), not wall time",
                )
            else:
                head, _, rest = dotted.partition(".")
                if head == "random" and rest in GLOBAL_RANDOM:
                    yield self.diagnostic(
                        module, node, "det-seed",
                        f"`{dotted}()` draws from the process-global "
                        "random stream; engine randomness must come from "
                        "an explicitly seeded generator the run manifest "
                        "records",
                    )
