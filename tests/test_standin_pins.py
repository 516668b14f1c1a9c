"""The dataset stand-ins' CSR arrays, pinned across revisions.

Every stand-in ``datasets.load`` serves is built through
``builders.from_edges``; a builder change that reorders adjacency slots or
renumbers edges would otherwise surface only indirectly, through mined
answers and simulated-time pins.  ``standin_pins.json`` holds a sha256 of
each CSR array (dtype and bytes) of CL, SL*5, CL*8, UK and EA.  A change
that *means* to move a stand-in re-records them on purpose::

    PYTHONPATH=src python -m tests.test_standin_pins --record

and says so in CHANGES.md.  A failure names the arrays that differ.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.graph import datasets

PINS_PATH = Path(__file__).with_name("standin_pins.json")
STANDINS = ("CL", "SL*5", "CL*8", "UK", "EA")
CSR_ARRAYS = ("offsets", "neighbors", "edge_ids", "edge_src", "edge_dst")


def observe(abbrev: str) -> dict:
    """Shape and one digest per CSR array of stand-in ``abbrev``."""
    graph = datasets.load(abbrev)
    pinned = {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges}
    for name in CSR_ARRAYS:
        array = getattr(graph, name)
        digest = hashlib.sha256(array.dtype.str.encode())
        digest.update(array.tobytes())
        pinned[name] = digest.hexdigest()
    return pinned


@pytest.mark.parametrize("abbrev", STANDINS)
def test_standin_csr_matches_pins(abbrev):
    want = json.loads(PINS_PATH.read_text(encoding="utf-8"))[abbrev]
    got = observe(abbrev)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{abbrev}: CSR arrays changed: {', '.join(moved)}"


def test_every_pin_has_a_standin():
    assert sorted(json.loads(PINS_PATH.read_text(encoding="utf-8"))) == sorted(STANDINS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_standin_pins --record")
    PINS_PATH.write_text(
        json.dumps({abbrev: observe(abbrev) for abbrev in STANDINS},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(STANDINS)} stand-ins -> {PINS_PATH}")
