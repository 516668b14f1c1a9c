"""Shared plumbing for the figure benchmarks.

Each benchmark regenerates one of the paper's tables/figures via
:mod:`repro.bench.figures`, times the regeneration with pytest-benchmark
(one round — the simulated results are deterministic), prints the
paper-style table, and archives it under ``benchmarks/reports/`` so
EXPERIMENTS.md can be cross-checked against fresh runs.
"""

from pathlib import Path

import pytest

from repro.graph import datasets

REPORTS_DIR = Path(__file__).parent / "reports"


@pytest.fixture
def figure_bench(benchmark):
    """Run one figure driver under pytest-benchmark and archive the report."""

    def _run(key, fn, *args, **kwargs):
        report = benchmark.pedantic(
            lambda: fn(*args, **kwargs), rounds=1, iterations=1
        )
        REPORTS_DIR.mkdir(exist_ok=True)
        (REPORTS_DIR / f"{key}.txt").write_text(report.render() + "\n")
        print()
        print(report.render())
        # Every figure must reproduce its paper shapes.
        failed = [c for c in report.checks if c.startswith("[DIVERGES")]
        assert not failed, f"shape checks diverged: {failed}"
        return report

    yield _run
    # Stand-ins are memoized per-module; drop them to bound peak RSS across
    # the whole benchmark session.
    datasets.clear_cache()
