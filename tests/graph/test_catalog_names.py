"""On-demand pattern names against the catalog once built up front.

``default_catalog(L)`` used to canonicalize every connected shape of up to
5 vertices / 4 edges under every assignment of ``L`` labels (44 166 codes at
8 labels) before naming anything.  It now names a code from the
process-wide canonical table when asked.  :func:`tests.twins.crossed_catalog`
keeps the old cross product, and every name must match it: per code, and
line for line in the CLI's ``fpm``, ``motifs`` and ``graphlets`` output.
"""

import pytest

from repro.algorithms import frequent_pattern_mining, graphlet_census, motif_count
from repro.cli import main
from repro.core import Gamma
from repro.graph import canonical_code_int, datasets, default_catalog
from tests.twins import crossed_catalog


@pytest.mark.parametrize("num_labels", [1, 3, 4])
def test_names_match_the_crossed_catalog(num_labels):
    catalog = default_catalog(num_labels)
    for code, (name, edges, assignment) in crossed_catalog(range(num_labels)).items():
        canonical_code_int(edges, assignment)  # the table holds it, as after a query
        assert catalog.name_of(code) == name
        assert code in catalog
        pattern = catalog.pattern_of(code)
        assert (tuple(pattern.edges), tuple(pattern.labels), pattern.name) == (
            edges, assignment, name)


@pytest.mark.parametrize("edges, labels", [
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0] * 6),   # 6 vertices
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [0] * 5),   # 5 edges
    ([(0, 1), (0, 2)], [0, 3, 0]),                         # label past the catalog's
], ids=["six-vertices", "five-edges", "label-past-bound"])
def test_codes_outside_the_bounds_read_as_hex(edges, labels):
    code = canonical_code_int(edges, labels)
    catalog = default_catalog(3)
    assert catalog.name_of(code) == f"pattern:{code & 0xFFFFFFFFFFFFFFFF:016x}"
    assert code not in catalog
    with pytest.raises(KeyError):
        catalog.pattern_of(code)


def test_a_registered_pattern_keeps_its_name():
    from repro.graph import triangle

    catalog = default_catalog(1)
    code = catalog.register(triangle(), name="my-triangle")
    assert catalog.name_of(code) == "my-triangle" and len(catalog) == 1


def _old_lines(mined, num_labels):
    """The CLI's pattern lines as the up-front catalog named them."""
    crossed = crossed_catalog(range(max(1, num_labels)))
    rows = [(crossed[code][0] if code in crossed
             else f"pattern:{code & 0xFFFFFFFFFFFFFFFF:016x}", support)
            for code, support in mined.items()]
    rows.sort(key=lambda item: (-item[1], item[0]))
    return [f"  {name:24s} {support}" for name, support in rows[:20]]


@pytest.mark.parametrize("argv, task", [
    (["--task", "fpm", "--iterations", "2", "--min-support", "3"],
     lambda engine: frequent_pattern_mining(engine, 2, 3).patterns),
    (["--task", "fpm", "--iterations", "3", "--min-support", "40"],
     lambda engine: frequent_pattern_mining(engine, 3, 40).patterns),
    (["--task", "motifs", "--edges", "3"],
     lambda engine: motif_count(engine, 3).histogram),
    (["--task", "graphlets", "--k", "4"],
     lambda engine: graphlet_census(engine, 4).histogram),
], ids=["fpm-2", "fpm-3", "motifs-3", "graphlets-4"])
def test_cli_lines_match_the_crossed_catalog(argv, task, capsys):
    graph = datasets.load("ER")
    with Gamma(graph) as engine:
        expected = _old_lines(task(engine), graph.num_labels)
    assert main(["run", "--dataset", "ER", *argv]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")]
    assert printed == expected and expected
