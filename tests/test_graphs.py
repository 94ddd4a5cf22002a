import numpy as np
import pytest

from dynwalks import chain, graphs
from dynwalks.errors import CapabilityError, GenerationError, GraphError


def test_static_graph_normalizes_edges(edge_set):
    g = graphs.StaticGraph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.m == 2
    assert edge_set(g) == {(1, 2), (0, 3)}
    assert list(g.degree) == [1, 1, 1, 1]


def test_static_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        graphs.StaticGraph(3, [(0, 3)])
    with pytest.raises(GraphError):
        graphs.StaticGraph(3, [(1, 1)])
    with pytest.raises(GraphError):
        graphs.StaticGraph(0, [])


def test_degree_matches_incidence_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        g = graphs.gnp_connected_graph(n, 0.5, rng)
        for u in range(n):
            assert g.degree[u] == sum(1 for a, b in g.edges if u in (a, b))
            assert sorted(g.neighbors(u)) == sorted(
                b if a == u else a for a, b in g.edges if u in (a, b))


def test_edge_boundary_examples():
    path = graphs.path_graph(4)  # 0-1-2-3; spec's 1-2-3 example shifted to 0-based
    assert graphs.edge_boundary(path, [0]) == [(0, 1)]
    c4 = graphs.cycle_graph(4)
    assert set(graphs.edge_boundary(c4, [0, 1])) == {(1, 2), (0, 3)}
    k4 = graphs.complete_graph(4)
    # direct enumeration oracle: |a| * |a^c| = 4 crossing edges
    assert len(graphs.edge_boundary(k4, [0, 1])) == 4


def test_edge_boundary_complement_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        g = graphs.gnp_connected_graph(n, 0.5, rng)
        k = int(rng.integers(1, n))
        a = list(rng.choice(n, size=k, replace=False))
        comp = [v for v in range(n) if v not in a]
        assert set(graphs.edge_boundary(g, a)) == set(graphs.edge_boundary(g, comp))


def test_edge_boundary_domain_errors():
    g = graphs.cycle_graph(4)
    with pytest.raises(GraphError):
        graphs.edge_boundary(g, [])
    with pytest.raises(GraphError):
        graphs.edge_boundary(g, [0, 1, 2, 3])


def test_ball_size_examples():
    g = graphs.cycle_graph(8)
    assert graphs.ball_size(g, 0, 0) == 1
    assert graphs.ball_size(g, 0, 2) == 5
    with pytest.raises(GraphError):
        graphs.ball_size(g, 8, 1)


def test_ball_size_monotone_and_reaches_n():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        g = graphs.gnp_connected_graph(n, 0.4, rng)
        prev = 0
        for r in range(n + 1):
            b = graphs.ball_size(g, 0, r)
            assert b >= prev
            prev = b
        assert prev == n


def test_ball_growth_lower_bound():
    # minimum-degree growth bound, exact integer arithmetic
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 14))
        g = graphs.gnp_connected_graph(n, 0.5, rng)
        delta = g.min_degree()
        for u in range(n):
            for x in range(1, n + 1):
                assert 3 * graphs.ball_size(g, u, x) >= min(delta * x, 3 * n)


def min_cut_brute_force(g):
    """Independent oracle for edge_connectivity: enumerate all proper subsets."""
    if g.n > 16:
        raise CapabilityError("brute-force min cut limited to n <= 16")
    if not graphs.is_connected(g):
        return 0
    u, v = g.edges[:, 0], g.edges[:, 1]
    best = g.m
    for mask in range(1, 1 << (g.n - 1)):  # vertex n-1 stays outside
        inside = (mask >> u) & 1 != (mask >> v) & 1
        best = min(best, int(inside.sum()))
    return best


def test_edge_connectivity_known_values():
    assert graphs.edge_connectivity(graphs.cycle_graph(7)) == 2
    assert graphs.edge_connectivity(graphs.complete_graph(5)) == 4
    assert graphs.edge_connectivity(graphs.path_graph(5)) == 1
    two_comp = graphs.StaticGraph(4, [(0, 1), (2, 3)])
    assert graphs.edge_connectivity(two_comp) == 0


def test_edge_connectivity_circulant_oracle():
    # brute-force oracle value recorded before the max-flow build: 2*rho
    g = graphs.circulant_graph(12, 3)
    assert min_cut_brute_force(g) == 6
    assert graphs.edge_connectivity(g) == 6


def test_edge_connectivity_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        g = graphs.gnp_connected_graph(n, 0.5, rng)
        assert graphs.edge_connectivity(g) == min_cut_brute_force(g)
        assert graphs.edge_connectivity(g) <= g.min_degree()


def test_generate_families(edge_set):
    c = graphs.FAMILIES["cycle"](n=4)
    assert c.m == 4 and set(c.degree) == {2}
    t = graphs.torus_graph([4, 4])
    assert t.m == 32 and set(t.degree) == {4}
    b = graphs.FAMILIES["barbell"](n=9)
    assert b.n == 9 and graphs.is_connected(b)
    # two K3 blocks plus the connecting path
    assert {(0, 1), (0, 2), (1, 2), (6, 7), (6, 8), (7, 8)} <= edge_set(b)
    prism = graphs.FAMILIES["complete_prism"](n=8)
    assert set(prism.degree) == {4}


def test_torus_side_two_rejected():
    with pytest.raises(GraphError):
        graphs.torus_graph([2, 4])


def test_random_regular_is_regular_and_deterministic():
    for d, n, seed in [(3, 10, 0), (4, 16, 1), (5, 12, 2)]:
        g1 = graphs.random_regular_graph(n, d, seed)
        g2 = graphs.random_regular_graph(n, d, seed)
        assert g1 == g2
        assert set(g1.degree) == {d}
    with pytest.raises(GraphError):
        graphs.random_regular_graph(5, 3, 0)  # odd n*d


def test_lazy_gap_regular_sparse_path_matches_dense():
    """Above n = 400 the gap comes from Lanczos on the CSC lazy step."""
    g = graphs.random_regular_graph(402, 3, 1)
    dense = chain.spectral_gap(chain.lazy_matrix(g), np.full(g.n, 1.0 / g.n))
    assert graphs._lazy_gap_regular(g) == pytest.approx(dense, abs=1e-10)


def test_expander_generation_gap_and_forbidden_edges(monkeypatch, edge_set):
    g = graphs.expander_graph(16, seed=5)
    assert graphs.is_connected(g)
    assert graphs._lazy_gap_regular(g) >= 0.05
    forbidden = [(0, 1), (2, 3), (4, 5)]
    g2 = graphs.expander_graph(16, seed=5, forbidden_edges=forbidden)
    assert not (set(map(tuple, forbidden)) & edge_set(g2))
    monkeypatch.setattr(graphs, "_lazy_gap_regular", lambda g: 0.0)  # no sample qualifies
    with pytest.raises(GenerationError, match="in 400 tries"):
        graphs.expander_graph(16, seed=5)


def test_expander_threshold_is_size_aware():
    assert graphs.expander_gap_threshold(16) == 0.05
    assert graphs.expander_gap_threshold(1000) == 0.02


def test_graph_text_round_trip(tmp_path, write_graph_text):
    g = graphs.gnp_connected_graph(9, 0.5, 6)
    path = tmp_path / "g.txt"
    write_graph_text(g, path)
    h = graphs.read_graph_text(path)
    assert h == g
    first = path.read_text().splitlines()[0]
    assert first == f"{g.n} {g.m}"


def test_min_cut_brute_force_capability_limit():
    with pytest.raises(CapabilityError):
        min_cut_brute_force(graphs.cycle_graph(17))
