"""Fixture-driven checker tests: snippet in, expected diagnostics out.

Each file in ``fixtures/`` is a self-describing case:

* ``# gammalint-fixture: <path>`` (line 1) — the path the snippet pretends
  to live at, which decides checker scopes;
* ``# expect[<code>]`` — every diagnostic the linter must emit, anchored
  to its line.  The assertion is exact-set equality, so unmarked findings
  (false positives) fail just as loudly as missed ones.
"""

import pathlib
import re

import pytest

from repro.analysis import lint_source

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))

_PATH = re.compile(r"#\s*gammalint-fixture:\s*(\S+)")
_EXPECT = re.compile(r"#\s*expect\[([a-z-]+)\]")


def _expected(text: str) -> set:
    out = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _EXPECT.finditer(line):
            out.add((lineno, match.group(1)))
    return out


def test_fixture_corpus_is_nonempty():
    assert len(FIXTURES) >= 4  # one per checker


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture(fixture):
    text = fixture.read_text()
    header = _PATH.search(text)
    assert header is not None, f"{fixture.name} lacks a gammalint-fixture header"
    diagnostics = lint_source(text, path=header.group(1))
    got = {(d.line, d.code) for d in diagnostics}
    assert got == _expected(text), "\n".join(d.format() for d in diagnostics)


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_goes_quiet_outside_its_scope(fixture):
    """The same snippet at a path outside every scope draws no scoped
    diagnostics (the warp-race checker is deliberately scope-free)."""
    text = fixture.read_text()
    diagnostics = lint_source(text, path="scripts/standalone.py")
    scoped = {"charge", "dtype", "overflow"}
    assert not [d for d in diagnostics if d.code in scoped]
