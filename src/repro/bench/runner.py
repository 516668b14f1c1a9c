"""Comparative experiment runner.

Runs one task on one system over one dataset stand-in, on a fresh platform,
and records what the paper's figures record: total simulated time (engine
construction included — "the preparation of host memory usage accounts for
a large portion of the total running time" on small graphs, §VI-C), peak
memory, and whether the system crashed (:class:`~repro.errors.GammaError`
— the in-core baselines' device OOM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Sequence

from ..baselines import GSI, GraphMiner, PangolinGPU, PangolinST, Peregrine
from ..core.framework import Gamma, GammaConfig
from ..errors import GammaError
from ..graph import datasets
from ..graph.csr import CSRGraph
from .workloads import Task

#: Registry of comparable systems (name -> engine factory taking a graph).
SYSTEMS: Dict[str, Callable[[CSRGraph], Any]] = {
    "GAMMA": Gamma,
    "Pangolin-GPU": PangolinGPU,
    "Pangolin-ST": PangolinST,
    "Peregrine": Peregrine,
    "GSI": GSI,
    "GraphMiner": GraphMiner,
}


@dataclass
class RunResult:
    """One cell of a comparative figure."""

    system: str
    dataset: str
    task: str
    simulated_seconds: float | None = None
    peak_memory_bytes: int | None = None
    peak_device_bytes: int | None = None
    crashed: bool = False
    crash_reason: str = ""
    payload: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def display_time(self) -> str:
        if self.crashed:
            return "CRASH"
        return f"{self.simulated_seconds * 1e3:.3f} ms"


def run_task(
    system: str,
    dataset: str,
    task: Task,
    engine_factory: Callable[[CSRGraph], Any] | None = None,
) -> RunResult:
    """Execute ``task`` for ``system`` on ``dataset``'s stand-in.

    Crashes (device/host OOM) are captured, not propagated — they are data
    points in the paper's figures.
    """
    if engine_factory is None:
        if system not in SYSTEMS:
            known = ", ".join(SYSTEMS)
            raise KeyError(f"unknown system {system!r}; known: {known}")
        engine_factory = SYSTEMS[system]
    graph = datasets.load(dataset)
    result = RunResult(system=system, dataset=dataset, task=task.name)
    engine = None
    try:
        engine = engine_factory(graph)
        result.payload = task.run(engine)
        result.simulated_seconds = engine.simulated_seconds
        result.peak_memory_bytes = engine.peak_memory_bytes
        result.peak_device_bytes = engine.peak_device_bytes
        platform = getattr(engine, "platform", None)
        if platform is not None:
            # include_zero keeps report columns identical across runs.
            result.extra["counters"] = platform.counters.snapshot(
                include_zero=True)
    except GammaError as exc:
        result.crashed = True
        result.crash_reason = type(exc).__name__
    finally:
        if engine is not None:
            try:
                engine.close()
            except GammaError:  # pragma: no cover - close-after-crash
                pass
    return result


def run_grid(
    systems: Sequence[str],
    dataset_names: Sequence[str],
    task: Task | Callable[[str], Task],
) -> list[RunResult]:
    """Run a (system x dataset) grid; ``task`` may depend on the dataset."""
    results = []
    for dataset in dataset_names:
        concrete = task(dataset) if callable(task) and not isinstance(task, Task) else task
        for system in systems:
            results.append(run_task(system, dataset, concrete))
    return results


def run_gamma_variant(
    dataset: str, task: Task, config: GammaConfig, label: str
) -> RunResult:
    """Run GAMMA under an ablation configuration (Figs. 16–20)."""
    return run_task(
        label, dataset, task, engine_factory=lambda g: Gamma(g, config)
    )
