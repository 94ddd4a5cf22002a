import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwalks import chain, commute, constructions, graphs, suites, walks
from dynwalks.errors import GraphError


# Oracle: the absorbing and interior linear solves that commute.py used before
# it read every quantity off the Laplacian pseudo-inverse.  One solve per
# target, two per commute time, n per commute matrix.
def oracle_hitting_times_to(g, target):
    P = chain.lazy_matrix(g)
    n = g.n
    A = np.eye(n) - P
    A[target, :] = 0.0
    A[target, target] = 1.0
    b = np.ones(n)
    b[target] = 0.0
    return np.linalg.solve(A, b)


def oracle_exact_commute(g, s, t):
    if s == t:
        return 0.0
    return float(oracle_hitting_times_to(g, t)[s] + oracle_hitting_times_to(g, s)[t])


def oracle_commute_matrix(g):
    H = np.column_stack([oracle_hitting_times_to(g, v) for v in range(g.n)])
    return H + H.T


def oracle_voltage(g, s, t):
    P = chain.lazy_matrix(g)
    n = g.n
    interior = np.array([v for v in range(n) if v not in (s, t)], dtype=np.int64)
    vals = np.zeros(n)
    vals[t] = 1.0
    if interior.size:
        A = np.eye(len(interior)) - P[np.ix_(interior, interior)]
        b = P[interior, t]
        vals[interior] = np.linalg.solve(A, b)
    return vals


def _close(got, want, rel=1e-10):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@st.composite
def connected_graphs(draw):
    family = draw(st.sampled_from(["gnp", "path", "barbell"]))
    if family == "barbell":
        return graphs.barbell_graph(3 * draw(st.integers(2, 21)))
    n = draw(st.integers(2, 64))
    if family == "path":
        return graphs.path_graph(n)
    p = draw(st.floats(min(1.0, 3.0 * np.log(n) / n), 1.0))  # connected w.h.p.
    return graphs.gnp_connected_graph(n, p, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_pseudo_inverse_core_matches_linear_solves(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(0, g.n - 2))
    t += t >= s
    assert _close(commute.hitting_times_to(g, t), oracle_hitting_times_to(g, t))
    assert _close(commute.exact_commute(g, s, t), oracle_exact_commute(g, s, t))
    assert _close(commute.commute_matrix(g), oracle_commute_matrix(g))
    assert _close(commute.solve_voltage(g, s, t).values, oracle_voltage(g, s, t))


def test_exact_commute_oracles():
    # K2: each leg is geometric with success 1/2
    assert commute.exact_commute(graphs.complete_graph(2), 0, 1) == pytest.approx(4.0)
    # lazy path end-to-end: 4 (n-1)^2, cross-checked at several sizes
    for n in (3, 4, 5, 12):
        g = graphs.path_graph(n)
        assert commute.exact_commute(g, 0, n - 1) == pytest.approx(4.0 * (n - 1) ** 2)
    assert commute.exact_commute(graphs.path_graph(4), 2, 2) == 0.0
    with pytest.raises(GraphError):
        commute.exact_commute(graphs.StaticGraph(4, [(0, 1), (2, 3)]), 0, 2)


def test_laplacian_pinv_computed_once_per_graph(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return graphs.is_connected(g)

    monkeypatch.setattr(commute, "is_connected", counting)
    g = graphs.gnp_connected_graph(8, 0.5, 3)
    commute.exact_commute(g, 0, 5)
    commute.cut_sum_upper(g, 0, 5)
    commute.commute_matrix(g)
    assert calls == [g]
    with pytest.raises(ValueError):
        commute._laplacian_pinv(g)[0, 0] = 1.0
    # a disconnected graph stores nothing and is checked, and rejected, every call
    calls.clear()
    split = graphs.StaticGraph(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(GraphError):
            commute.exact_commute(split, 0, 2)
    assert calls == [split, split]


@pytest.mark.parametrize("bad", [-1, 5])
@pytest.mark.parametrize("call", [
    lambda g, v: commute.hitting_times_to(g, v),
    lambda g, v: commute.exact_commute(g, v, 0),
    lambda g, v: commute.exact_commute(g, 2, v),
    lambda g, v: commute.solve_voltage(g, 0, v),
    lambda g, v: commute.cut_sum_upper(g, v, 4),
    lambda g, v: commute.distance_layer_cutsets(g, 0, v),
    lambda g, v: commute.nash_williams_lower(g, 0, v, [[(3, 4)]]),
    lambda g, v: commute.cut_sums_from(g, v),
    lambda g, v: commute.nash_williams_from(g, v),
], ids=["hitting", "commute-s", "commute-t", "voltage", "cutsum", "layers", "nash-williams",
        "cutsums-from", "nash-williams-from"])
def test_commute_vertices_are_range_checked(call, bad):
    # -1 would wrap to vertex 4 of the path, and 5 is one past its end
    with pytest.raises(GraphError, match="out of range"):
        call(graphs.path_graph(5), bad)


def test_solve_voltage_rejects_a_residual_above_tolerance(monkeypatch):
    g = graphs.path_graph(5)
    Lp = commute._laplacian_pinv(g).copy()
    Lp[2, 4] += 1e-3  # vertex 2's voltage is no longer the mean of its neighbours'
    monkeypatch.setattr(commute, "_laplacian_pinv", lambda g: Lp)
    with pytest.raises(GraphError, match="voltage solve residual"):
        commute.solve_voltage(g, 0, 4)
    with pytest.raises(GraphError, match="voltage solve residual"):
        commute.cut_sums_from(g, 0)


def test_hitting_times_first_step_consistency():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = graphs.gnp_connected_graph(int(rng.integers(3, 10)), 0.5, rng)
        P = chain.lazy_matrix(g)
        for target in range(0, g.n, 2):
            tau = commute.hitting_times_to(g, target)
            resid = tau - (1.0 + P @ tau)
            assert abs(tau[target]) < 1e-9
            mask = np.arange(g.n) != target
            assert np.abs(resid[mask]).max() < 1e-8


def test_max_commute_symmetric_and_positive():
    g = graphs.circulant_graph(16, 2)
    C = commute.commute_matrix(g)
    assert np.allclose(C, C.T)
    assert commute.max_commute(g) == pytest.approx(C.max())
    assert np.abs(np.diag(C)).max() < 1e-8


def test_solve_voltage_k2_and_path():
    volt = commute.solve_voltage(graphs.complete_graph(2), 0, 1)
    assert np.allclose(volt.values, [0.0, 1.0])
    assert commute.voltage_commute_bound(graphs.complete_graph(2), volt) == pytest.approx(4.0)
    g = graphs.path_graph(5)
    v = commute.solve_voltage(g, 0, 4)
    # harmonicity forces linearity on a path
    assert np.allclose(v.values, [0, 0.25, 0.5, 0.75, 1.0])


def test_voltage_commute_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = graphs.gnp_connected_graph(int(rng.integers(3, 11)), 0.5, rng)
        s, t = 0, g.n - 1
        volt = commute.solve_voltage(g, s, t)
        exact = commute.exact_commute(g, s, t)
        assert commute.voltage_commute_bound(g, volt) == pytest.approx(exact, rel=1e-6)


def test_voltage_is_the_maximiser():
    g = graphs.barbell_graph(9)
    s, t = 0, 8
    volt = commute.solve_voltage(g, s, t)
    best = commute.voltage_commute_bound(g, volt)
    rng = np.random.default_rng(2)
    for _ in range(100):
        cand = rng.random(g.n)
        cand[s], cand[t] = 0.0, 1.0
        assert 1.0 / chain.dirichlet_form_edges(g, cand) <= best + 1e-6


def test_cut_sum_upper_path_tight_and_k2():
    for n in (3, 6, 10):
        g = graphs.path_graph(n)
        order, bounds = commute.cut_sum_upper(g, 0, n - 1)
        assert np.array_equal(order, np.arange(n))
        assert np.all(commute._prefix_cuts(g, order) == 1)
        assert bounds.flow == pytest.approx(4.0 * (n - 1) ** 2, abs=1e-9)
        assert bounds.literal_2m == pytest.approx(2.0 * (n - 1) ** 2, abs=1e-9)
    _, k2b = commute.cut_sum_upper(graphs.complete_graph(2), 0, 1)
    assert k2b.flow == pytest.approx(4.0)


def test_cut_sum_upper_dominates_exact():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = graphs.gnp_connected_graph(int(rng.integers(4, 11)), 0.5, rng)
        s, t = sorted(rng.choice(g.n, size=2, replace=False))
        exact = commute.exact_commute(g, int(s), int(t))
        _, bounds = commute.cut_sum_upper(g, int(s), int(t))
        assert bounds.flow >= exact - 1e-9


def test_labelling_prefix_flows_match_boundaries():
    g = graphs.gnp_connected_graph(8, 0.5, 5)
    order, bounds = commute.cut_sum_upper(g, 0, 7)
    cuts = commute._prefix_cuts(g, order)
    assert np.all(cuts >= 1)
    assert bounds.flow == pytest.approx(4.0 * g.m * np.sum(1.0 / cuts))


def test_connected_labelling_path_identity_and_cycle():
    g = graphs.path_graph(6)
    volt = commute.solve_voltage(g, 0, 5)
    order = commute.connected_labelling(g, volt)
    assert np.array_equal(order, np.arange(6))
    c6 = graphs.cycle_graph(6)
    volt = commute.solve_voltage(c6, 0, 3)
    order = commute.connected_labelling(c6, volt)
    assert order is not None
    assert commute.prefixes_connected(c6, order)
    assert np.all(np.diff(volt.values[order]) >= -1e-9)


def _assert_greedy_labelling(g, s, t):
    volt = commute.solve_voltage(g, s, t)
    order = commute.connected_labelling(g, volt)
    assert order is not None
    assert order[0] == s and sorted(order) == list(range(g.n))
    assert commute.prefixes_connected(g, order)
    assert np.all(np.diff(volt.values[order]) >= -1e-9)
    assert volt.values[order[-1]] == pytest.approx(1.0, abs=1e-9)


def test_connected_labelling_exhaustive_small():
    rng = np.random.default_rng(6)
    for _ in range(15):
        g = graphs.gnp_connected_graph(int(rng.integers(3, 7)), 0.5, rng)
        for s in range(g.n):
            for t in range(g.n):
                if s != t:
                    _assert_greedy_labelling(g, s, t)


# the minimum principle: every sublevel set of a voltage below 1 is connected to
# s, so the greedy frontier walk never stops
@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_connected_labelling_greedy_walk_completes(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(0, g.n - 2))
    _assert_greedy_labelling(g, s, t + (t >= s))


def test_connected_labelling_flags_a_non_harmonic_voltage():
    # the only vertex after 1 on the frontier lies below it
    volt = commute.VoltageFunction(np.array([0.0, 0.9, 0.1, 1.0]), s=0, t=3)
    assert commute.connected_labelling(graphs.path_graph(4), volt) is None


def test_nash_williams_path_exact_and_validation():
    n = 6
    g = graphs.path_graph(n)
    cutsets = [[(i, i + 1)] for i in range(n - 1)]
    nw = commute.nash_williams_lower(g, 0, n - 1, cutsets)
    assert nw.flow == pytest.approx(4.0 * (n - 1) ** 2)
    assert nw.literal_2m == pytest.approx(2.0 * (n - 1) ** 2)
    with pytest.raises(GraphError):  # shared edge between cutsets
        commute.nash_williams_lower(g, 0, n - 1, [[(0, 1)], [(0, 1)]])
    with pytest.raises(GraphError):  # no edge of g, though 0 * n + 8 is the key of (1, 2)
        commute.nash_williams_lower(g, 0, n - 1, [[(0, 8)]])
    for pair in ((0, 99), (0, 4)):  # no edge of g beside a cut edge: once counted in the size
        with pytest.raises(GraphError, match="no edge of g"):
            commute.nash_williams_lower(g, 0, n - 1, [[(2, 3), pair]])
    c6 = graphs.cycle_graph(6)
    with pytest.raises(GraphError):  # one cycle edge leaves 0 and 3 connected
        commute.nash_williams_lower(c6, 0, 3, [[(0, 1)]])
    # a full two-edge cycle cut is accepted
    nw2 = commute.nash_williams_lower(c6, 0, 3, [[(0, 1), (3, 4)]])
    assert nw2.flow == pytest.approx(4.0 * 6 / 2)


def test_distance_layer_cutsets_are_valid_and_bound():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = graphs.gnp_connected_graph(int(rng.integers(4, 11)), 0.4, rng)
        s, t = 0, g.n - 1
        cuts = commute.distance_layer_cutsets(g, s, t)
        assert len(cuts) >= 1
        nw = commute.nash_williams_lower(g, s, t, cuts)
        assert nw.flow <= commute.exact_commute(g, s, t) + 1e-9
    with pytest.raises(GraphError, match="unreachable"):
        commute.distance_layer_cutsets(graphs.StaticGraph(4, [(0, 1), (2, 3)]), 0, 3)


def test_nash_williams_checks_connectivity_once_per_graph(monkeypatch):
    bfs = []
    real = graphs._bfs

    def counting(g, source, keep=None):
        bfs.append(keep is None)
        return real(g, source, keep)

    monkeypatch.setattr(graphs, "_bfs", counting)
    g = graphs.cycle_graph(6)
    for _ in range(3):
        assert commute.nash_williams_lower(g, 0, 3, [[(0, 1), (3, 4)]]).flow == 12.0
    assert bfs == [True]  # commute's masked BFS is bound at import and not counted here


@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_per_source_bounds_equal_the_per_pair_bounds(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    upper = commute.cut_sums_from(g, s)
    lower = commute.nash_williams_from(g, s)
    assert upper[s] == lower[s] == 0.0
    for t in range(g.n):
        if t != s:
            assert upper[t] == commute.cut_sum_upper(g, s, t)[1].flow
            assert lower[t] == commute.nash_williams_lower(
                g, s, t, commute.distance_layer_cutsets(g, s, t)).flow


@pytest.mark.parametrize("per_source", [commute.cut_sums_from, commute.nash_williams_from])
def test_per_source_bounds_reject_a_disconnected_graph(per_source):
    with pytest.raises(GraphError, match="connected"):
        per_source(graphs.StaticGraph(4, [(0, 1), (2, 3)]), 0)


def test_commute_bounds_suite_runs_one_bfs_per_source(monkeypatch):
    built, bfs, separates = [], [], []
    build, real = graphs.gnp_connected_graph, graphs._bfs

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def counting(g, source, keep=None):
        bfs.append((g, source, keep is None))
        return real(g, source, keep)

    monkeypatch.setattr(graphs, "gnp_connected_graph", building)
    monkeypatch.setattr(graphs, "_bfs", counting)
    monkeypatch.setattr(commute, "_separates", lambda *args: separates.append(args))
    suites.suite_commute_bounds(seeds=[6], sizes=[3])
    [g] = built
    assert g.n == 10 and separates == []
    # the connectivity check from vertex 0, then one unmasked BFS per source
    assert [(source, unmasked) for h, source, unmasked in bfs if h is g] == \
        [(0, True)] + [(s, True) for s in range(g.n)]


def test_full_sandwich_random_graphs():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = graphs.gnp_connected_graph(int(rng.integers(4, 10)), 0.5, rng)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                exact = commute.exact_commute(g, s, t)
                nw = commute.nash_williams_lower(
                    g, s, t, commute.distance_layer_cutsets(g, s, t))
                _, up = commute.cut_sum_upper(g, s, t)
                assert nw.flow - 1e-9 <= exact <= up.flow + 1e-9


def test_sandwich_on_larger_graphs():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(12, 25))
        g = graphs.gnp_connected_graph(n, 0.3, rng)
        for _ in range(3):
            s, t = rng.choice(n, size=2, replace=False)
            s, t = int(s), int(t)
            exact = commute.exact_commute(g, s, t)
            nw = commute.nash_williams_lower(
                g, s, t, commute.distance_layer_cutsets(g, s, t))
            _, up = commute.cut_sum_upper(g, s, t)
            assert nw.flow - 1e-8 <= exact <= up.flow + 1e-8


def test_profile_bound_and_eigen_sum():
    k4 = graphs.complete_graph(4)
    # lazy complete graph: n-1 eigenvalues at (n-2)/(2(n-1)) -> 2 (n-1)^2 / n
    assert commute.eigen_sum(k4) == pytest.approx(2 * 9 / 4)
    assert commute.eigen_sum(k4) <= commute.profile_bound(k4)
    k12 = graphs.complete_graph(12)
    assert commute.eigen_sum(k12) == pytest.approx(2 * 121 / 12)
    for n in (8, 12):
        prism = graphs.complete_prism_graph(n)
        assert commute.eigen_sum(prism) <= commute.profile_bound(prism)
    with pytest.raises(GraphError):
        commute.profile_bound(graphs.path_graph(5))


def test_connectivity_bound_shapes():
    # path: delta = rho = 1 -> n^2 * dbar scale
    n = 20
    path = graphs.path_graph(n)
    dbar = 2 * path.m / n
    assert commute.connectivity_bound(path) == pytest.approx(n * n * dbar)
    # complete graph: near n log n, far below the generic n^3
    kn = graphs.complete_graph(64)
    bound = commute.connectivity_bound(kn)
    assert bound < 64 ** 2 * 20
    assert bound >= commute.max_commute(kn) - 1e-6
    # circulant family: bound within a log factor of n^2 / rho
    g = graphs.circulant_graph(64, 2)
    assert commute.connectivity_bound(g) / (64 * 64 / 2) <= 4.0 * np.log2(4)


def test_near_tied_voltages_keep_their_order():
    # a voltage nudged by 1e-13 past its tied neighbour is still ordered by index
    g = graphs.cycle_graph(8)
    volt = commute.solve_voltage(g, 0, 4)
    base = commute.voltage_labelling(g, volt)
    assert volt.values[3] == pytest.approx(volt.values[5], abs=1e-15)
    for w, delta in ((3, 1e-13), (5, -1e-13)):
        moved = commute.VoltageFunction(values=volt.values.copy(), s=0, t=4)
        moved.values[w] += delta
        assert np.array_equal(commute.voltage_labelling(g, moved), base)
        assert np.array_equal(commute.connected_labelling(g, moved),
                              commute.connected_labelling(g, volt))


# Oracles: the edge loop distance_layer_cutsets ran before it assigned layers
# with array ops, and the separation test that rebuilt the graph without the cut.
def oracle_distance_layer_cutsets(g, s, t):
    dist = graphs.bfs_distances(g, s)
    dt = int(dist[t])
    cutsets = [[] for _ in range(dt)]
    for u, v in g.edges:
        a, b = sorted((int(dist[u]), int(dist[v])))
        if b == a + 1 and b <= dt:
            cutsets[b - 1].append((int(u), int(v)))
    return cutsets


def oracle_separates(g, s, t, removed):
    keep = [e for e in map(tuple, g.edges.tolist()) if tuple(sorted(e)) not in removed]
    sub = graphs.StaticGraph(g.n, keep if keep else np.empty((0, 2), np.int64))
    return not np.isfinite(graphs.bfs_distances(sub, s)[t])


@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_distance_layers_and_separation_match_the_rebuilt_graph(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(0, g.n - 1))
    assert commute.distance_layer_cutsets(g, s, t) == oracle_distance_layer_cutsets(g, s, t)
    cut = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    removed = [(int(u), int(v)) for (u, v), c in zip(g.edges, cut) if c]
    if oracle_separates(g, s, t, set(removed)):
        assert commute.nash_williams_lower(g, s, t, [removed]).flow == 4.0 * g.m / len(removed)
    else:
        with pytest.raises(GraphError, match="does not separate"):
            commute.nash_williams_lower(g, s, t, [removed])
    # a pair that is no edge of g, perhaps outside 0..n-1, is rejected
    pair = data.draw(st.tuples(st.integers(-2, g.n + 2), st.integers(-2, g.n + 2)))
    if tuple(sorted(pair)) not in set(map(tuple, g.edges.tolist())):
        with pytest.raises(GraphError, match="no edge of g"):
            commute.nash_williams_lower(g, s, t, [removed + [pair]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagated_hitting_times_match_the_pseudo_inverse(seed):
    g = graphs.gnp_connected_graph(12, 0.3, seed)
    pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    ests = walks.exact_hitting_batch(constructions.build_static(g), pairs, eps=1e-12)
    assert {e.status for e in ests} == {"exact-to-tolerance"}
    H = np.column_stack([commute.hitting_times_to(g, v) for v in range(g.n)])
    want = np.array([H[u, v] for u, v in pairs])
    got = np.array([e.lower for e in ests])
    assert (np.abs(got - want) <= 1e-11 * want).all()  # measured: 9.5e-13 relative


@settings(max_examples=60)
@given(connected_graphs())
def test_fosters_theorem(g):
    # sum over edges of R_eff(u, v) = C_uv / 4m is n - 1
    C = commute.commute_matrix(g)
    r_eff = C[g.edges[:, 0], g.edges[:, 1]] / (4.0 * g.m)
    assert r_eff.sum() == pytest.approx(g.n - 1, rel=1e-10)


@settings(max_examples=60)
@given(connected_graphs())
def test_random_target_lemma(g):
    # sum_v pi(v) H(u, v) does not depend on the start u
    H = np.column_stack([commute.hitting_times_to(g, v) for v in range(g.n)])
    k = H @ chain.degree_stationary(g).pi
    assert np.abs(k - k[0]).max() <= 1e-12 * k[0]
