"""The process-wide canonical table (``repro.graph.canonical``).

Every canonical form in ``src/`` goes through one bounded table keyed by a
graph's quick-pattern words: the quick patterns an FPM level groups, the
catalog's shapes, ``canonical_code_int`` and the graphlet census.  A form
is a pure function of its key, so the table may only ever change how often
``canonical_form`` runs, never a code or a placement:

* differential: the table against ``canonical_form`` called directly, over
  the label cross product the catalog once registered (1, 3 and 4 labels;
  ``python -m tests.graph.test_canonical_table 8`` runs the 8-label stress
  case, 44 166 codes);
* two threads racing on one key both compute, and get, the same entry, and
  eight threads sharing the table leave every entry equal to the direct one;
* past the cap a form is computed and not stored;
* a warm encoder canonicalizes nothing, and ``cache_size`` still counts the
  quick patterns that encoder looked up;
* process-executor workers, whose table entries stay in the worker, mine
  the codes the serial engine mines, and the front still names them.
"""

import sys
import threading

import numpy as np
import pytest

from repro.algorithms import frequent_pattern_mining
from repro.core import Gamma
from repro.cli import main
from repro.graph import canonical, catalog, datasets, default_catalog
from repro.graph.canonical import (
    QuickPatternEncoder, canonical_code_int, canonical_entry, representative,
)
from repro.graph.generators import erdos_renyi
from tests.twins import crossed_catalog, direct_entry


@pytest.fixture
def empty_table(monkeypatch):
    """A fresh, empty table for the test (the module's stays untouched)."""
    monkeypatch.setattr(canonical, "_FORMS", {})
    monkeypatch.setattr(canonical, "_REPRESENTATIVES", {})
    return canonical


def _counting(monkeypatch, before=lambda: None):
    """Replace ``canonical_form`` by a counting wrapper; returns the count."""
    calls = []
    original = canonical.canonical_form

    def counted(edges, labels):
        calls.append((tuple(edges), tuple(labels)))
        before()
        return original(edges, labels)

    monkeypatch.setattr(canonical, "canonical_form", counted)
    return calls


def check_against_direct(num_labels):
    """Every graph of the crossed catalog: the table's entry, code and
    representative agree with ``canonical_form`` called directly."""
    crossed = crossed_catalog(range(num_labels))
    for code, (__, edges, assignment) in crossed.items():
        assert canonical_entry(edges, assignment) == direct_entry(edges, assignment)
        assert canonical_code_int(edges, assignment) == code
        rep_edges, rep_labels = representative(code)
        assert direct_entry(rep_edges, rep_labels)[0] == code
    return crossed


@pytest.mark.parametrize("num_labels", [1, 3, 4])
def test_table_matches_canonical_form(num_labels):
    crossed = check_against_direct(num_labels)
    assert len(crossed) == {1: 10, 3: 526, 4: 1825}[num_labels]


def test_every_ordering_of_a_graph_keys_its_own_entry(empty_table):
    """The key is the graph as given (edge order and orientation included);
    isomorphic keys share a code, and each placement is its own input's."""
    path = [(0, 1), (1, 2), (2, 3)]
    shuffled = [(2, 1), (3, 2), (1, 0)]
    first = canonical_entry(path, [0, 1, 1, 0])
    second = canonical_entry(shuffled, [0, 1, 1, 0])
    assert first == direct_entry(path, [0, 1, 1, 0])
    assert second == direct_entry(shuffled, [0, 1, 1, 0])
    assert first[0] == second[0]
    assert len(empty_table._FORMS) == 2
    assert len(empty_table._REPRESENTATIVES) == 1


def test_graphs_that_do_not_pack_are_computed_not_stored(empty_table, monkeypatch):
    calls = _counting(monkeypatch)
    isolated = ([(0, 1)], [0, 0, 0])  # vertex 2 is on no edge
    wide_label = ([(0, 1)], [0, 300])
    for edges, labels in (isolated, wide_label, isolated):
        assert canonical_entry(edges, labels) == direct_entry(edges, labels)
    assert len(calls) == 3 and empty_table._FORMS == {}


def test_two_threads_race_on_one_key(empty_table, monkeypatch):
    """Both threads miss, both compute (held together at a barrier), both
    get the direct entry, and the table keeps one."""
    barrier = threading.Barrier(2, timeout=30)
    calls = _counting(monkeypatch, before=barrier.wait)
    edges, labels = [(0, 1), (1, 2), (0, 2)], [3, 1, 3]
    results = [None, None]

    def look_up(slot):
        results[slot] = canonical_entry(edges, labels)

    threads = [threading.Thread(target=look_up, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(calls) == 2
    assert results[0] == results[1] == direct_entry(edges, labels)
    assert len(empty_table._FORMS) == 1
    assert representative(results[0][0]) == (edges, labels)


def test_many_threads_share_the_table(empty_table):
    """Eight threads (more than the cores) canonicalize overlapping graph
    sets with a tight switch interval: every answer, every stored entry and
    every representative agrees with ``canonical_form`` called directly."""
    graphs = [(edges, list(labels)) for __, edges, labels
              in crossed_catalog(range(3)).values()]
    wrong = []

    def work(offset):
        for edges, labels in graphs[offset:] + graphs[:offset]:
            if canonical_entry(edges, labels) != direct_entry(edges, labels):
                wrong.append((edges, labels))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(17 * i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not wrong
    for key, entry in empty_table._FORMS.items():
        assert entry == direct_entry(*canonical._decode_quick(*key))
    for code, key in empty_table._REPRESENTATIVES.items():
        assert empty_table._FORMS[key][0] == code


def test_entries_past_the_cap_are_computed_not_stored(empty_table, monkeypatch):
    monkeypatch.setattr(canonical, "_TABLE_CAP", 3)
    calls = _counting(monkeypatch)
    graphs = [([(0, 1)], [a, b]) for a in range(3) for b in range(3)]
    for edges, labels in graphs:
        assert canonical_entry(edges, labels) == direct_entry(edges, labels)
    assert len(empty_table._FORMS) == 3 and len(calls) == len(graphs)
    del calls[:]
    for edges, labels in graphs:
        assert canonical_entry(edges, labels) == direct_entry(edges, labels)
    assert len(calls) == len(graphs) - 3  # the first three were stored


def test_the_encoder_and_canonical_entry_share_keys(empty_table, monkeypatch):
    """A quick pattern the encoder looked up is the same key for
    ``canonical_entry``, label 200 on the eighth vertex (qb's sign bit)
    included."""
    calls = _counting(monkeypatch)
    labels = np.array([3, 0, 7, 1, 1, 9, 4, 200])
    path = np.arange(8)
    QuickPatternEncoder().encode_edge_embeddings(path[None, :-1], path[None, 1:], labels)
    assert len(calls) == 1
    edges = [(v, v + 1) for v in range(7)]
    assert canonical_entry(edges, labels.tolist()) == direct_entry(edges, labels.tolist())
    assert len(calls) == 1 and len(empty_table._FORMS) == 1


def _wedge_rows(seed):
    """400 random two-edge rows sharing a first endpoint, 4 labels."""
    labels = erdos_renyi(60, 240, seed=seed, labels=4).labels
    rng = np.random.default_rng(seed)
    centre = rng.integers(0, 60, size=400)
    return labels, np.stack([centre, centre], axis=1), rng.integers(0, 60, size=(400, 2))


def test_a_warm_encoder_canonicalizes_nothing(empty_table, monkeypatch):
    calls = _counting(monkeypatch)
    labels, srcs, dsts = _wedge_rows(5)
    cold, warm = QuickPatternEncoder(), QuickPatternEncoder()
    first = cold.encode_edge_embeddings(srcs, dsts, labels, return_positions=True)
    computed = len(calls)
    second = warm.encode_edge_embeddings(srcs, dsts, labels, return_positions=True)
    assert computed > 0 and len(calls) == computed
    assert warm.cache_size == cold.cache_size == computed
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


def test_process_workers_mine_the_serial_codes(empty_table):
    """The workers canonicalize in their own tables; the front's stays
    empty, the codes equal the serial run's, and the front names them as
    the crossed catalog does."""
    graph = erdos_renyi(90, 600, seed=3, labels=4)
    with Gamma(graph, num_shards=2, executor="process") as engine:
        mined = frequent_pattern_mining(engine, 2, 8).patterns
    assert mined and empty_table._FORMS == {}
    names = default_catalog(4).describe(mined)
    with Gamma(graph) as engine:
        assert frequent_pattern_mining(engine, 2, 8).patterns == mined
    crossed = crossed_catalog(range(4))
    assert names == sorted(((crossed[code][0], support)
                            for code, support in mined.items()),
                           key=lambda row: (-row[1], row[0]))


def test_the_front_fetches_what_its_workers_mined(empty_table, monkeypatch):
    """``Gamma.learn_codes`` asks the workers for each mined code's
    representative in one fan-out and stores it in the front's table, so
    the front names them without crossing shapes and labels — the names
    the crossed catalog gives."""
    graph = erdos_renyi(90, 600, seed=3, labels=4)
    with Gamma(graph, num_shards=2, executor="process") as engine:
        mined = frequent_pattern_mining(engine, 2, 8).patterns
        engine.learn_codes(mined)
    assert set(empty_table._REPRESENTATIVES) == set(mined)

    def no_crossing(edges, labels):
        raise AssertionError("the catalog crossed shapes and labels")

    monkeypatch.setattr(catalog, "canonical_entry", no_crossing)
    names = default_catalog(4).describe(mined)
    crossed = crossed_catalog(range(4))
    assert names == sorted(((crossed[code][0], support)
                            for code, support in mined.items()),
                           key=lambda row: (-row[1], row[0]))


def test_process_cli_prints_the_serial_lines(empty_table, capsys):
    """``repro run --executor process`` names its patterns as the serial
    run does, line for line, from a cold table."""
    lines = {}
    for executor in ("process", "serial"):
        try:
            assert main(["run", "--task", "fpm", "--dataset", "ER",
                         "--min-support", "2", "--executor", executor]) == 0
        finally:
            datasets.clear_cache()
        out = capsys.readouterr().out
        lines[executor] = [line for line in out.splitlines()
                           if line.startswith("  ")]
    assert lines["process"] == lines["serial"] and lines["serial"]


if __name__ == "__main__":  # the stress case: python -m tests.graph.test_canonical_table 8
    for count in map(int, sys.argv[1:] or ["8"]):
        crossed = check_against_direct(count)
        catalog = default_catalog(count)
        for code, (name, edges, assignment) in crossed.items():
            assert catalog.name_of(code) == name, (code, name)
            pattern = catalog.pattern_of(code)
            assert (tuple(pattern.edges), tuple(pattern.labels)) == (edges, assignment)
        print(f"{count} labels: {len(crossed)} codes match canonical_form and the crossed names")
