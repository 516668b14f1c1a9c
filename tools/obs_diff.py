#!/usr/bin/env python
"""Regression gate over run manifests.

Compares a candidate run manifest (``repro run --manifest-out``) against
a baseline one and exits non-zero when a counter or simulated-time
regression exceeds the thresholds.

Manifests are matched by (system, dataset, task); a pair that differs
there is reported but never fails the gate.  The simulation is
deterministic, so on identical code the diff is empty — the thresholds
exist only to absorb intentional cost-model tweaks.

Exit codes (CI asserts on these, so they are a contract):

====  ==========  =====================================================
code  mode        meaning
====  ==========  =====================================================
0     both        within thresholds; or nothing to gate (empty/
                  pre-telemetry baseline, no comparable manifests)
0     --warn-only regressions or a missing candidate were found, but
                  warn-only mode reports and exits clean
1     strict      at least one regression beyond thresholds
2     strict      the candidate file holds no manifests (broken run
                  or wrong path — distinct from "slower")
====  ==========  =====================================================

An *empty baseline* is exit 0 in both modes: a brand-new workload has
nothing to regress against, and failing there would block the first run
that creates the baseline.

Usage:
    PYTHONPATH=src python tools/obs_diff.py base-manifest.json cand.json
    PYTHONPATH=src python tools/obs_diff.py base-manifest.json cand.json \
        --counter-threshold 0.10 --time-threshold 0.05 --warn-only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import diff_manifests, format_findings  # noqa: E402

MANIFEST_SCHEMA_PREFIX = "gamma-manifest/"

#: Documented exit codes (see module docstring; CI asserts on them).
EXIT_OK = 0
EXIT_REGRESSIONS = 1
EXIT_NO_CANDIDATE = 2


def _extract(path: Path) -> "dict[tuple, dict]":
    """Map (system, dataset, task) -> the manifest ``path`` holds (empty
    when the file is not a run manifest)."""
    data = json.loads(path.read_text())
    if str(data.get("schema", "")).startswith(MANIFEST_SCHEMA_PREFIX):
        key = (data.get("system"), data.get("dataset"), data.get("task"))
        return {key: data}
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--counter-threshold", type=float, default=0.10,
                        help="relative counter growth tolerated (default 0.10)")
    parser.add_argument("--time-threshold", type=float, default=0.05,
                        help="relative simulated-time drift tolerated "
                             "(default 0.05)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI soft-launch)")
    args = parser.parse_args(argv)

    base = _extract(args.baseline)
    cand = _extract(args.candidate)
    if not base:
        print(f"{args.baseline}: no manifests found "
              f"(pre-telemetry baseline?); nothing to gate")
        return EXIT_OK
    if not cand:
        print(f"{args.candidate}: no manifests found", file=sys.stderr)
        return EXIT_OK if args.warn_only else EXIT_NO_CANDIDATE

    regressions = 0
    compared = 0
    for key in sorted(base, key=str):
        label = "/".join(str(k) for k in key)
        if key not in cand:
            print(f"[skip] {label}: only in baseline")
            continue
        compared += 1
        findings = diff_manifests(
            base[key], cand[key],
            counter_threshold=args.counter_threshold,
            time_threshold=args.time_threshold,
        )
        regressions += sum(1 for f in findings if f["regression"])
        print(f"== {label} ==")
        print(format_findings(findings))
    for key in sorted(set(cand) - set(base), key=str):
        print(f"[skip] {'/'.join(str(k) for k in key)}: only in candidate")

    if not compared:
        print("no comparable manifests between the two files")
        return EXIT_OK
    if regressions:
        print(f"\n{regressions} regression(s) beyond thresholds",
              file=sys.stderr)
        return EXIT_OK if args.warn_only else EXIT_REGRESSIONS
    print(f"\nOK: {compared} manifest(s) within thresholds")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
