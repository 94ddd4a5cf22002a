"""The graph layer's fast paths against independent oracles.

The oracles are the earlier implementations: a 2-D ``np.unique(axis=0)``
dedupe with ``np.add.at`` degrees, the pairing model's 2-D multi-edge
rejection, one pairing-model call per schedule step, and scipy's
``dijkstra`` and ``connected_components`` on a CSR matrix built from the
edge list. Every comparison is exact.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from dynwalks import constructions, graphs, schedule
from dynwalks.errors import GenerationError, GraphError

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


def oracle_step(n, d, seed, t, connected):
    """Step t of ``build_random_regular_schedule`` drawn on its own: the graph
    of ``derived_rng(seed, t)``, redrawn from ``derived_rng(seed, t, attempt)``
    while disconnected; the exception it raises is returned."""
    try:
        g = graphs.random_regular_graph(n, d, graphs.derived_rng(seed, t))
        attempt = 0
        while connected and not graphs.is_connected(g):
            attempt += 1
            if attempt > 200:
                raise GraphError("no connected regular sample in 200 attempts")
            g = graphs.random_regular_graph(n, d, graphs.derived_rng(seed, t, attempt))
    except (GraphError, GenerationError) as exc:
        return exc
    return g


def assert_step_is(s, t, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=re.escape(str(want))):
            s.step(t)
    else:
        got = s.step(t)
        assert got.edges.dtype == want.edges.dtype and got.edges.shape == want.edges.shape
        assert got.edges.tobytes() == want.edges.tobytes()


@st.composite
def regular_schedules(draw):
    """(n, d, seed, connected, T) for ``build_random_regular_schedule``."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, 24).filter(lambda n: n * d % 2 == 0))
    connected = draw(st.booleans())
    # a connected 1-regular graph needs n = 2: every other step exhausts its retries
    T = draw(st.integers(1, 4 if connected and d == 1 and n > 2 else 20))
    return n, d, draw(st.integers(0, 2**32 - 1)), connected, T


@settings(max_examples=60, deadline=None)
@given(regular_schedules(), st.sampled_from([None, 1, 3, 5]), st.data())
def test_block_drawn_steps_match_per_step_oracle(case, cap, data):
    # every step is its own derived_rng's graph, whatever the access order and
    # however the cache evicts a block's steps before they are asked for
    n, d, seed, connected, T = case
    want = {}

    def oracle(t):
        if t not in want:
            want[t] = oracle_step(n, d, seed, t, connected)
        return want[t]

    B = constructions.REGULAR_BLOCK
    orders = [range(1, T + 1), range(T, 0, -1),
              data.draw(st.permutations(range(1, T + 1)))]
    with mock.patch.object(schedule, "_GRAPH_CACHE_CAP", cap or schedule._GRAPH_CACHE_CAP):
        for order in orders:
            s = constructions.build_random_regular_schedule(n, d, seed=seed, connected=connected)
            for i, t in enumerate(order):
                assert_step_is(s, t, oracle(t))
                assert len(s._graphs) <= schedule._GRAPH_CACHE_CAP
                if i == 0 and cap is None:
                    # the first miss holds every drawable step of t's aligned block
                    first = t - (t - 1) % B
                    held = {u for u in range(first, first + B)
                            if not isinstance(oracle(u), Exception)}
                    assert {u for _, u in s._graphs} == held


@SETTINGS
@given(st.integers(2, 64), st.integers(1, 6), st.lists(st.integers(0, 2**32 - 1), max_size=10),
       st.sampled_from([graphs.REGULAR_RETRY_CAP, 1, 3, 5, 37]))
def test_random_regular_graphs_match_one_call_per_generator(n, d, seeds, cap):
    assume(d < n and (n * d) % 2 == 0)
    with mock.patch.object(graphs, "REGULAR_RETRY_CAP", cap):
        one = [np.random.default_rng(seed) for seed in seeds]
        want = []
        for rng in one:
            try:
                want.append(graphs.random_regular_graph(n, d, rng))
            except GenerationError as exc:
                want.append(exc)
        many = [np.random.default_rng(seed) for seed in seeds]
        got = graphs.random_regular_graphs(n, d, many)
    assert len(got) == len(want)
    for g, w, r1, r2 in zip(got, want, one, many):
        assert type(g) is type(w)
        if isinstance(w, Exception):
            assert str(g) == str(w)
        else:
            assert g.edges.dtype == w.edges.dtype and np.array_equal(g.edges, w.edges)
            assert np.array_equal(g.adj_indices, w.adj_indices)
        # each Generator is left where its own call leaves it
        assert r1.bit_generator.state == r2.bit_generator.state


def test_a_failing_step_raises_only_when_asked_for():
    # with one attempt a step, about half the 2-regular steps fail: a step
    # whose own draw succeeds is served whatever its block neighbours do
    n, d, seed, T = 10, 2, 3, 3 * constructions.REGULAR_BLOCK
    with mock.patch.object(graphs, "REGULAR_RETRY_CAP", 1):
        want = {t: oracle_step(n, d, seed, t, False) for t in range(1, T + 1)}
        block = [want[t] for t in range(1, constructions.REGULAR_BLOCK + 1)]
        assert any(isinstance(w, GenerationError) for w in block)
        assert not all(isinstance(w, GenerationError) for w in block)
        for order in (range(1, T + 1), range(T, 0, -1)):
            s = constructions.build_random_regular_schedule(n, d, seed=seed)
            for t in order:
                assert_step_is(s, t, want[t])
            # the failures were not cached, and fail again when asked for again
            for t in order:
                assert_step_is(s, t, want[t])
        s = constructions.build_random_regular_schedule(n, d, seed=seed)
        fails = [t for t in want if isinstance(want[t], GenerationError)]
        for t in fails:
            assert_step_is(s, t, want[t])
        assert all(isinstance(s.step(t), graphs.StaticGraph) for t in want if t not in fails)
