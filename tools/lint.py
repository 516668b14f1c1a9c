"""Run the full lint stack: gammalint, then ruff and mypy when available.

Usage (from the repository root):

    python tools/lint.py            # everything that is installed
    python tools/lint.py --strict   # fail if ruff/mypy are missing

gammalint (``repro.analysis``) is stdlib-only and always runs.  ruff and
mypy are optional-dependency extras (``pip install -e .[lint]``); outside
CI they may be absent, in which case they are skipped with a notice so the
repo-specific invariants still get checked everywhere.
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_gammalint(strict: bool = False) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis.__main__ import main as gammalint_main

    print("== gammalint ==")
    argv = [str(REPO_ROOT / "src")]
    if strict:
        # CI mode also audits the waiver ledger: a module-level
        # allow[code] whose code no longer fires is debt to collect.
        argv.append("--check-waivers")
    return gammalint_main(argv)


def run_external(tool: str, args: list[str], strict: bool) -> int:
    if shutil.which(tool) is None:
        print(f"== {tool} == not installed; "
              f"{'FAIL (--strict)' if strict else 'skipped'} "
              "(pip install -e .[lint])")
        return 1 if strict else 0
    print(f"== {tool} ==")
    return subprocess.run([tool, *args], cwd=REPO_ROOT).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--strict", action="store_true",
        help="treat missing ruff/mypy as failures (CI mode)",
    )
    args = parser.parse_args(argv)
    statuses = [
        run_gammalint(strict=args.strict),
        run_external("ruff", ["check", "src", "tests", "tools"], args.strict),
        run_external("mypy", [], args.strict),
    ]
    return 1 if any(statuses) else 0


if __name__ == "__main__":
    sys.exit(main())
