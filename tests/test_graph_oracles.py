"""The graph layer's fast paths against independent oracles.

The oracles are the earlier implementations: a 2-D ``np.unique(axis=0)``
dedupe with ``np.add.at`` degrees, the pairing model's 2-D multi-edge
rejection, and scipy's ``dijkstra`` and ``connected_components`` on a CSR
matrix built from the edge list. Every comparison is exact.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from dynwalks import graphs
from dynwalks.errors import GenerationError

SETTINGS = settings(max_examples=200)


def oracle_edges_degree(n, edges):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size:
        e = np.unique(np.sort(e, axis=1), axis=0)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, e[:, 0], 1)
    np.add.at(deg, e[:, 1], 1)
    return e, deg


def oracle_adjacency(n, edges):
    e, _ = oracle_edges_degree(n, edges)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()


def oracle_random_regular(n, d, seed):
    rng = graphs.as_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(graphs.REGULAR_RETRY_CAP):
        perm = rng.permutation(stubs)
        pairs = np.sort(perm.reshape(-1, 2), axis=1)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = np.unique(pairs, axis=0)
        if edges.shape[0] != pairs.shape[0]:
            continue
        return edges
    raise GenerationError("pairing model failed")


@st.composite
def multigraphs(draw, max_n=24):
    """(n, edge list) with repeated pairs and both orientations of some."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    flipped = draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    return n, edges + [(v, u) for u, v in flipped] + flipped


@SETTINGS
@given(multigraphs())
def test_static_graph_matches_2d_unique_oracle(case):
    n, edges = case
    g = graphs.StaticGraph(n, edges)
    e, deg = oracle_edges_degree(n, edges)
    assert g.edges.dtype == e.dtype and g.edges.shape == e.shape
    assert np.array_equal(g.edges, e)
    assert g.degree.dtype == deg.dtype and np.array_equal(g.degree, deg)
    assert g.m == e.shape[0]
    assert (g.csr() != oracle_adjacency(n, edges)).nnz == 0


@SETTINGS
@given(multigraphs(), st.data())
def test_bfs_distances_match_dijkstra(case, data):
    n, edges = case
    g = graphs.StaticGraph(n, edges)
    s = data.draw(st.integers(0, n - 1))
    want = dijkstra(oracle_adjacency(n, edges), directed=False, indices=s, unweighted=True)
    got = graphs.bfs_distances(g, s)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@SETTINGS
@given(multigraphs())
def test_is_connected_matches_connected_components(case):
    n, edges = case
    ncomp = connected_components(oracle_adjacency(n, edges), directed=False,
                                 return_labels=False)
    assert graphs.is_connected(graphs.StaticGraph(n, edges)) == (ncomp == 1)


@pytest.mark.parametrize("n, edges, connected", [
    (1, [], True),
    (2, [], False),
    (5, [], False),
    (4, [(0, 1), (2, 3)], False),
    (6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], False),
    (4, [(0, 1), (1, 2), (2, 3)], True),
])
def test_is_connected_edge_cases(n, edges, connected):
    g = graphs.StaticGraph(n, edges)
    assert graphs.is_connected(g) is connected
    ncomp = connected_components(oracle_adjacency(n, edges), directed=False,
                                 return_labels=False)
    assert (ncomp == 1) is connected


def test_bfs_distances_long_path_and_isolated_vertex():
    g = graphs.StaticGraph(7, [(i, i + 1) for i in range(5)])
    assert list(graphs.bfs_distances(g, 0)) == [0, 1, 2, 3, 4, 5, np.inf]
    assert list(graphs.bfs_distances(g, 6)) == [np.inf] * 6 + [0]


@SETTINGS
@given(st.integers(2, 128), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([graphs.REGULAR_RETRY_CAP, 1, 3, 5, 37]))
def test_random_regular_matches_2d_rejection_oracle(n, d, seed, shared, cap):
    # the batched sampler against one attempt at a time: a retry cap that
    # falls inside a batch must fail after exactly that many attempts
    assume(d < n and (n * d) % 2 == 0)

    def run(sample):
        rng = np.random.default_rng(seed) if shared else seed
        try:
            edges = sample(n, d, rng)
        except GenerationError:
            edges = None
        return edges

    with mock.patch.object(graphs, "REGULAR_RETRY_CAP", cap):
        want = run(oracle_random_regular)
        got = run(lambda *args: graphs.random_regular_graph(*args).edges)
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
