"""Equivalence of quick-pattern grouping and its straight-line twin.

``QuickPatternEncoder._group_quick`` groups rows one edge column at a
time, ranking each column's key under the previous column's group with a
presence map (a sort, ``group_by``, once the key domain passes
``_PRESENCE_SLOTS_PER_ROW`` slots a row).  The twin in :mod:`tests.twins`
relabels whole rows, packs ``(qa, qb)`` words and groups them with
``np.unique(axis=0)``.  The groups come out in different orders, but each
carries the same words, so codes, the grouped row -> code index, MNI
positions and the errors raised must be bit-identical.
"""

from unittest import mock

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.errors import InvalidPatternError
from repro.graph import canonical, groupby
from repro.graph.canonical import MAX_VERTICES, QuickPatternEncoder
from repro.graph.generators import erdos_renyi, zipf_labels
from tests.core.test_sort import _SortSpy
from tests.twins import ARMS

FAST, REFERENCE = ARMS["fast"], ARMS["reference"]

#: ``_PRESENCE_SLOTS_PER_ROW`` values forcing one ranker: 0 sorts every
#: column; 1024 slots a row covers every domain of the alphabets up to 8
#: (at most ``G * 20 * 21`` for seven edges) and most of those of 256.
RANKERS = {"sort": 0, "presence": 1024}


def _encode_in(stack, srcs, dsts, labels, return_positions=False,
               grouped=False):
    with stack():
        encoder = QuickPatternEncoder()
        out = encoder.encode_edge_embeddings(
            srcs, dsts, labels, return_positions=return_positions,
            grouped=grouped)
    codes, positions = out if return_positions else (out, None)
    if grouped:
        codes = (codes.distinct.tolist(), codes.index.tolist())
    else:
        codes = codes.tolist()
    if return_positions:
        return codes, positions.tolist()
    return codes


def _outcome(stack, *args, **kwargs):
    """The encoder's output, or the type of the error it raised."""
    try:
        return _encode_in(stack, *args, **kwargs)
    except (InvalidPatternError, ValueError, IndexError) as err:
        return type(err)


def _ranker(slots_per_row):
    return lambda: mock.patch.object(
        canonical, "_PRESENCE_SLOTS_PER_ROW", slots_per_row)


def _connected_embeddings(k, rows=400, seed=9, num_vertices=40):
    """``rows`` connected ``k``-edge walks (k + 1 vertices at most), each
    edge in a random orientation."""
    graph = erdos_renyi(num_vertices, 4 * num_vertices, seed=11)
    rng = np.random.default_rng(seed)
    walk = [rng.integers(0, graph.num_vertices, size=rows)]
    for __ in range(k):
        degree = graph.offsets[walk[-1] + 1] - graph.offsets[walk[-1]]
        pick = graph.offsets[walk[-1]] + rng.integers(0, 1 << 30, size=rows) % np.maximum(degree, 1)
        walk.append(np.where(degree > 0, graph.neighbors[pick], walk[-1]))
    walk = np.stack(walk, axis=1)
    flip = rng.random((rows, k)) < 0.5
    srcs, dsts = walk[:, :-1], walk[:, 1:]
    return np.where(flip, dsts, srcs), np.where(flip, srcs, dsts)


def _loose_embeddings(rng, rows, k, num_vertices):
    """Rows of ``k`` edges over at most 8 vertices each, connected or not,
    self loops and repeated edges included."""
    pool = rng.integers(0, num_vertices, size=(rows, MAX_VERTICES))
    reach = rng.integers(1, MAX_VERTICES + 1, size=(rows, 1))
    pick = rng.integers(0, 1 << 20, size=(rows, 2 * k)) % reach
    seq = np.take_along_axis(pool, pick, axis=1)
    return seq[:, 0::2], seq[:, 1::2]


@settings(max_examples=60, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**31 - 1),
    n=hst.integers(min_value=1, max_value=200),
    width=hst.integers(min_value=1, max_value=7),
    num_labels=hst.sampled_from([1, 3, 8, 256]),
    connected=hst.booleans(),
    mode=hst.sampled_from(["codes", "grouped", "positions"]),
)
def test_canonicalize_fast_matches_reference(seed, n, width, num_labels,
                                             connected, mode):
    """Both rankers, run on the same rows, give the twin's output."""
    rng = np.random.default_rng(seed)
    num_vertices = 40
    if connected:
        srcs, dsts = _connected_embeddings(width, rows=n, seed=seed)
    else:
        srcs, dsts = _loose_embeddings(rng, n, width, num_vertices)
    labels = rng.integers(0, num_labels, size=num_vertices, dtype=np.int64)
    kwargs = {"return_positions": mode == "positions",
              "grouped": mode == "grouped"}
    ref = _outcome(REFERENCE, srcs, dsts, labels, **kwargs)
    for slots in RANKERS.values():
        assert _outcome(_ranker(slots), srcs, dsts, labels, **kwargs) == ref


def test_canonicalize_positions_fast_matches_reference():
    graph = erdos_renyi(40, 160, seed=11)
    labels = zipf_labels(40, 4, seed=3)
    rng = np.random.default_rng(5)
    rows = rng.integers(0, graph.num_edges, size=(300, 2), dtype=np.int64)
    srcs = graph.edge_src[rows]
    dsts = graph.edge_dst[rows]
    fast = _encode_in(FAST, srcs, dsts, labels, return_positions=True)
    ref = _encode_in(REFERENCE, srcs, dsts, labels,
                     return_positions=True)
    assert fast == ref


@pytest.mark.parametrize("k", [1, 3, 4])
def test_ranker_threshold_both_sides(k):
    """The same connected rows are ranked by the presence map on every
    column with the shipped threshold (12 000 rows on two labels: the
    widest domain, k = 4's last column, is 21 168 slots) and by
    ``group_by`` on every column with it at 0; codes and MNI positions
    match the twin on both sides."""
    srcs, dsts = _connected_embeddings(k, rows=12_000, num_vertices=400)
    labels = zipf_labels(400, 2, seed=3)
    ref = _encode_in(REFERENCE, srcs, dsts, labels, return_positions=True)
    for slots, sorts in [(canonical._PRESENCE_SLOTS_PER_ROW, 0), (0, k)]:
        with mock.patch.object(canonical, "group_by",
                               wraps=canonical.group_by) as sort:
            out = _encode_in(_ranker(slots), srcs, dsts, labels,
                             return_positions=True)
        assert sort.call_count == sorts
        assert out == ref


def test_disconnected_rows_match_the_twin():
    """Three disjoint edges are 6 vertices, four are the most a quick
    pattern holds: each column opens two fresh slots."""
    srcs = np.array([[0, 2, 4, 6], [1, 3, 5, 7], [6, 4, 2, 0]], dtype=np.int64)
    dsts = srcs + 10
    labels = np.arange(20, dtype=np.int64) % 3
    for k in (3, 4):
        fast = _encode_in(FAST, srcs[:, :k], dsts[:, :k], labels,
                          return_positions=True)
        assert fast == _encode_in(REFERENCE, srcs[:, :k], dsts[:, :k],
                                  labels, return_positions=True)


def test_canonicalize_isomorphic_rows_share_codes_in_both_modes():
    # Two triangles listed in different edge orders are the same pattern.
    srcs = np.array([[0, 1, 2], [4, 3, 5]], dtype=np.int64)
    dsts = np.array([[1, 2, 0], [5, 4, 3]], dtype=np.int64)
    labels = np.zeros(6, dtype=np.int64)
    for mode in (FAST, REFERENCE):
        codes = _encode_in(mode, srcs, dsts, labels)
        assert codes[0] == codes[1]


@pytest.mark.parametrize("arm", sorted(ARMS))
@pytest.mark.parametrize("bad", [300, -1])
def test_out_of_range_label_only_matters_when_read(arm, bad):
    """A label outside ``[0, 255]`` on a vertex no row touches encodes; on
    a touched vertex it raises — as shipped and in the twin."""
    labels = np.array([1, 2, 1, 0, bad], dtype=np.int64)
    srcs, dsts = np.array([[0, 1], [2, 3]]), np.array([[1, 2], [3, 0]])
    codes = _encode_in(ARMS[arm], srcs, dsts, labels, return_positions=True)
    assert codes == _encode_in(ARMS[arm], srcs, dsts, labels[:4],
                               return_positions=True)
    with pytest.raises(InvalidPatternError):
        _encode_in(ARMS[arm], srcs, np.array([[1, 4], [3, 0]]), labels)


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_ninth_vertex_raises(arm):
    """Eight vertices encode; a ninth raises, wherever it first appears."""
    labels = np.zeros(20, dtype=np.int64)
    srcs = np.array([[0, 2, 4, 6]])
    assert len(_encode_in(ARMS[arm], srcs, srcs + 1, labels)) == 1
    srcs = np.array([[0, 2, 4, 6, 0], [0, 2, 4, 6, 8]])
    for dsts in ([1, 3, 5, 7, 8], [1, 3, 5, 7, 1]):
        with pytest.raises(InvalidPatternError):
            _encode_in(ARMS[arm], srcs, np.array([[1, 3, 5, 7, 0], dsts]),
                       labels)


def test_a_level_groups_without_a_row_sized_sort():
    """Work count, not time: encoding 100 000 two-edge walks calls no
    sort, argsort, lexsort, unique or searchsorted on an array longer than
    the level's distinct quick patterns."""
    srcs, dsts = _connected_embeddings(2, rows=100_000, num_vertices=2000)
    labels = zipf_labels(2000, 8, seed=3)
    spy = _SortSpy(also=("searchsorted",))
    encoder = QuickPatternEncoder()
    with mock.patch.object(canonical, "np", spy), \
            mock.patch.object(groupby, "np", spy):
        encoder.encode_edge_embeddings(srcs, dsts, labels, grouped=True)
    assert 0 < encoder.cache_size < 5000
    assert max(spy.sizes, default=0) <= encoder.cache_size
