"""``python -m repro.analysis [paths...]`` — run gammalint.

Exit status 0 when the tree is clean, 1 when any diagnostic survives the
waivers, 2 on usage errors, 3 when ``--max-seconds`` is exceeded (the CI
lint job budgets the full run so the linter itself cannot rot into the
slowest gate).

``--changed [REF]`` narrows *reporting* to files touched since REF
(default ``HEAD``) while still building the project-wide symbol table and
call graph from every file under ``paths`` — interprocedural findings
stay exact, only the output is filtered.  ``--check-waivers`` adds
stale-waiver detection (module-level waivers whose code no longer fires).
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys
import time
from typing import Sequence

from .framework import (
    all_checkers,
    format_human,
    format_json,
    format_sarif,
    lint_paths,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="gammalint: AST invariant checks for the GAMMA repro",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated diagnostic codes to report (default: all)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="only report findings in files changed since REF (default "
        "HEAD: staged+unstaged+untracked); the call graph still spans "
        "all paths, so cross-file findings in changed files stay exact",
    )
    parser.add_argument(
        "--check-waivers", action="store_true",
        help="also flag stale waivers: module-level allow[] entries whose "
        "code no longer fires anywhere in the module",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="fail (exit 3) if the whole run takes longer than S seconds; "
        "elapsed time is always printed to stderr when set",
    )
    parser.add_argument(
        "--list-checkers", action="store_true",
        help="print the registered checkers and their codes, then exit",
    )
    return parser


def _changed_files(ref: str) -> "set[str] | None":
    """Absolute paths of ``*.py`` files changed since ``ref``.

    Union of ``git diff REF`` (staged + unstaged since the ref) and
    untracked files.  Returns ``None`` — meaning "no filtering" — when
    git is unavailable or the ref does not resolve, so ``--changed``
    degrades to a full run rather than silently linting nothing.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", ref],
            capture_output=True, text=True, check=True)
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"warning: --changed {ref}: {exc}; linting everything",
              file=sys.stderr)
        return None
    names = diff.stdout.splitlines() + untracked.stdout.splitlines()
    return {
        str(pathlib.Path(name).resolve())
        for name in names if name.endswith(".py")
    }


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_checkers:
        for checker in all_checkers():
            codes = ", ".join(checker.codes)
            print(f"{checker.name} [{codes}]\n    {checker.description}")
        return 0
    started = time.perf_counter()
    paths = [pathlib.Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    only_files = None
    if args.changed is not None:
        only_files = _changed_files(args.changed)
        if only_files is not None and not only_files:
            print("gammalint: no python files changed", file=sys.stderr)
    diagnostics = lint_paths(
        paths, select=select,
        check_waivers=args.check_waivers, only_files=only_files)
    if args.format == "json":
        print(format_json(diagnostics))
    elif args.format == "sarif":
        print(format_sarif(diagnostics))
    elif diagnostics:
        print(format_human(diagnostics))
    else:
        print("gammalint: clean")
    status = 1 if diagnostics else 0
    if args.max_seconds is not None:
        elapsed = time.perf_counter() - started
        print(f"gammalint: {elapsed:.2f}s (budget {args.max_seconds:.0f}s)",
              file=sys.stderr)
        if elapsed > args.max_seconds:
            print(f"gammalint: TOO SLOW — {elapsed:.2f}s exceeds the "
                  f"{args.max_seconds:.0f}s budget", file=sys.stderr)
            return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
