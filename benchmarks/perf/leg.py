"""Entry point of the ``BENCHMARK.json`` contract: one leg of one workload.

``python3 benchmarks/perf/leg.py --workload W --seed S --seconds T --trace 0|1``
prints the metrics and, last, the contract's JSON line.  Run from any directory;
it finds the checkout from its own path and fails (non-zero, no result) where
``src/repro`` is not there to measure.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf.cli import main  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    sys.exit(main(["leg", *sys.argv[1:]]))
