import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwalks import chain, constructions, graphs, schedule, walks
from dynwalks.errors import CapabilityError, GraphError


def dirichlet_form(P, f, pi) -> float:
    """E_P(f,f) = (1/2) sum_{u,v} (f(u)-f(v))^2 pi(u) P(u,v) for a dense matrix P."""
    f = np.asarray(f, float)
    diff = f[:, None] - f[None, :]
    return float(0.5 * np.sum(diff * diff * (np.asarray(pi, float)[:, None] * P)))


# Set-level oracles for the exhaustive conductance and the cut profile.

def probability_flow(P, pi, a_mask, b_mask) -> float:
    """Q(A,B) = sum_{u in A, v in B} pi(u) P(u,v)."""
    return float(np.sum(pi[a_mask][:, None] * P[np.ix_(a_mask, b_mask)]))


def conductance_set(P, pi, members) -> float:
    """Phi_P(A) = Q(A, A^c) / min(pi(A), pi(A^c)) for a nonempty proper subset."""
    mask = np.zeros(P.shape[0], dtype=bool)
    mask[list(members)] = True
    if not 0 < mask.sum() < P.shape[0]:
        raise GraphError("conductance needs a nonempty proper subset")
    return probability_flow(P, pi, mask, ~mask) / min(pi[mask].sum(), pi[~mask].sum())


def conductance_profile(g, k) -> float:
    """Phi_k = min over |S| = k of |E(S, V-S)| / (d |S|), regular graphs only."""
    if not g.is_regular():
        raise GraphError("the conductance profile is defined for regular graphs")
    return float(chain.cut_profile(g)[k] / (g.degree[0] * k))


def test_lazy_matrix_k2():
    P = chain.lazy_matrix(graphs.complete_graph(2))
    assert np.allclose(P, [[0.5, 0.5], [0.5, 0.5]])


def test_lazy_matrix_star():
    # center 0 with 3 leaves
    g = graphs.StaticGraph(4, [(0, 1), (0, 2), (0, 3)])
    P = chain.lazy_matrix(g)
    assert P[0, 1] == pytest.approx(1 / 6)
    assert P[1, 0] == pytest.approx(1 / 2)
    assert P[1, 1] == 0.5


def test_lazy_matrix_isolated_vertex_row_is_identity():
    g = graphs.StaticGraph(3, [(0, 1)])
    P = chain.lazy_matrix(g)
    assert P[2, 2] == 1.0 and P[2, 0] == 0.0 and P[2, 1] == 0.0


def test_lazy_matrix_structure_random():
    rng = np.random.default_rng(0)
    for _ in range(15):
        g = graphs.gnp_connected_graph(int(rng.integers(3, 20)), 0.4, rng)
        P = chain.lazy_matrix(g)
        assert np.all(np.diag(P) >= 0.5)
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        for u, v in g.edges:
            assert P[u, v] == 0.5 / g.degree[u]
            assert P[v, u] == 0.5 / g.degree[v]


def test_degree_stationary_examples():
    reg = graphs.cycle_graph(6)
    assert np.allclose(chain.degree_stationary(reg).pi, 1 / 6)
    p3 = graphs.path_graph(3)
    assert np.allclose(chain.degree_stationary(p3).pi, [0.25, 0.5, 0.25])
    with pytest.raises(GraphError):
        chain.degree_stationary(graphs.StaticGraph(3, []))


@settings(max_examples=60)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.sampled_from(["gnp", "regular", "isolated"]))
def test_degree_stationary_detailed_balance(n, seed, family):
    # the certification degree_stationary no longer runs on a dense matrix
    rng = np.random.default_rng(seed)
    if family == "gnp":
        g = graphs.gnp_connected_graph(n, 0.3, rng)
    elif family == "regular":
        n = max(n, 4)
        d = int(rng.integers(2, min(n - 1, 4) + 1))
        g = graphs.random_regular_graph(n, d - (n * d) % 2, rng)
    else:
        # a G(k, 1/2) sample on the first k vertices, the rest isolated
        k = int(rng.integers(2, n + 1))
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.5]
        g = graphs.StaticGraph(n + 2, pairs or [(0, 1)])
    dist = chain.degree_stationary(g)
    assert np.array_equal(dist.pi, g.degree / (2.0 * g.m))
    assert chain.detailed_balance_residual(chain.lazy_matrix(g), dist.pi) <= 1e-12


def test_degree_stationary_barbell_fixed_point():
    g = graphs.barbell_graph(9)
    dist = chain.degree_stationary(g)
    P = chain.lazy_matrix(g)
    assert np.allclose(dist.pi, g.degree / (2 * g.m))
    assert np.abs(dist.pi @ P - dist.pi).max() < 1e-12


def test_inner_product_and_variance():
    g = graphs.cycle_graph(8)
    pi = chain.degree_stationary(g).pi
    ones = np.ones(8)
    assert np.sum(ones * ones * pi) == pytest.approx(1.0)
    assert chain.variance_pi(ones, pi) == pytest.approx(0.0)
    # point mass likelihood: variance = 1/pi(u) - 1
    rho = np.zeros(8)
    rho[3] = 1 / pi[3]
    assert chain.variance_pi(rho, pi) == pytest.approx(1 / pi[3] - 1)


def test_variance_two_formula_equivalence():
    # E_pi rho^2 - 1 against direct sum pi (rho - 1)^2 for random distributions
    g = graphs.cycle_graph(8)
    pi = chain.degree_stationary(g).pi
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.random(8)
        p /= p.sum()
        rho = p / pi
        direct = float(np.sum(pi * (rho - 1.0) ** 2))
        assert chain.variance_pi(rho, pi) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=60)
@given(st.integers(3, 24), st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3))
def test_dirichlet_form_examples_and_equivalence(n, seed, regular, isolated):
    k2 = graphs.complete_graph(2)
    assert chain.dirichlet_form_edges(k2, [0.0, 2.0]) == pytest.approx(1.0)
    assert dirichlet_form(chain.lazy_matrix(k2), [1.0, 1.0], [0.5, 0.5]) == 0.0
    # the edge form against the dense one: the degree pi on any graph, the
    # uniform pi on a regular graph (the pi a schedule of regular steps
    # declares) and a positive pi stationary for no step; the last
    # `isolated` vertices have no edges
    rng = np.random.default_rng(seed)
    if regular:
        d = int(rng.integers(2, min(n - 1, 4) + 1))
        live = graphs.random_regular_graph(n, d - (n * d) % 2, rng)
    else:
        live = graphs.gnp_connected_graph(n, 0.5, rng)
    g = graphs.StaticGraph(n + isolated, live.edges)
    pis = [chain.degree_stationary(g).pi, rng.random(g.n) + 0.1]
    pis[1] /= pis[1].sum()
    if regular:
        pis.append(np.full(g.n, 1.0 / g.n))
    f = rng.normal(size=g.n)
    P = chain.lazy_matrix(g)
    for pi in pis:
        dense = dirichlet_form(P, f, pi)
        assert chain.dirichlet_form_edges(g, f, pi) == pytest.approx(dense, rel=1e-12)
    assert chain.dirichlet_form_edges(g, f) == pytest.approx(
        dirichlet_form(P, f, pis[0]), rel=1e-12)


@pytest.mark.parametrize("make", [lambda: constructions.build_nohitting(8),
                                  lambda: constructions.build_random_regular_schedule(12, 3, 2)],
                         ids=["nohitting", "regular"])
def test_window_dirichlet_form_matches_the_average_matrix(make):
    """The window check's E_Pbar, the mean of the per-step edge forms, equals
    the dense form of the window-average matrix."""
    s = make()
    for t1, w in ((0, 4), (3, 8), (5, 16)):
        chk = walks.window_average_decay_check(s, t1, w, 0, s.pi)
        rho = walks.evolve_trace(s, 0, t1)[t1] / s.pi
        dense = dirichlet_form(schedule.window_average(s, t1, w, pi=s.pi).matrix, rho, s.pi)
        assert chk.dirichlet_avg == pytest.approx(dense, rel=1e-12)


def test_self_adjointness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = graphs.gnp_connected_graph(int(rng.integers(3, 12)), 0.5, rng)
        pi = chain.degree_stationary(g).pi
        P = chain.lazy_matrix(g)
        f, h = rng.normal(size=g.n), rng.normal(size=g.n)
        lhs = np.sum((P @ f) * h * pi)  # <Pf, h>_pi
        rhs = np.sum(f * (P @ h) * pi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_spectral_gap_known_values():
    k2 = graphs.complete_graph(2)
    assert chain.spectral_gap(chain.lazy_matrix(k2), [0.5, 0.5]) == pytest.approx(1.0)
    # lazy cycle: gap = (1 - cos(2 pi / n)) / 2, circulant eigenvalue oracle
    for n in (5, 8, 12):
        g = graphs.cycle_graph(n)
        pi = chain.degree_stationary(g).pi
        gap = chain.spectral_gap(chain.lazy_matrix(g), pi)
        assert gap == pytest.approx((1 - np.cos(2 * np.pi / n)) / 2, abs=1e-12)
    assert chain.spectral_gap(chain.lazy_matrix(graphs.cycle_graph(8)),
                              np.full(8, 1 / 8)) == pytest.approx(0.14644660940672627)


def test_spectral_gap_disconnected_is_zero():
    g = graphs.StaticGraph(4, [(0, 1), (2, 3)])
    gap = chain.spectral_gap(chain.lazy_matrix(g), np.full(4, 0.25))
    assert abs(gap) < 1e-12


def test_spectral_gap_rejects_non_reversible():
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(GraphError):
        chain.spectral_gap(P, np.full(3, 1 / 3))


def test_spectral_gap_variational_characterization():
    g = graphs.gnp_connected_graph(10, 0.5, 7)
    pi = chain.degree_stationary(g).pi
    P = chain.lazy_matrix(g)
    lam = chain.spectral_gap(P, pi)
    rng = np.random.default_rng(8)
    for _ in range(200):
        f = rng.normal(size=g.n)
        var = chain.variance_pi(f, pi)
        if var < 1e-12:
            continue
        ratio = dirichlet_form(P, f, pi) / var
        assert ratio >= lam - 1e-9
    # the second eigenvector of P, from the pi-symmetrized matrix
    root = np.sqrt(pi)
    _, V = np.linalg.eigh((root[:, None] / root[None, :]) * P)
    f2 = V[:, -2] / root
    ratio2 = dirichlet_form(P, f2, pi) / chain.variance_pi(f2, pi)
    assert ratio2 == pytest.approx(lam, abs=1e-9)


def test_conductance_set_examples():
    # single vertex of a d-regular lazy chain: exactly half its mass flows out
    g = graphs.cycle_graph(8)
    pi = chain.degree_stationary(g).pi
    P = chain.lazy_matrix(g)
    # Q({0}) = 2 edges / 4m = 1/16, min-side mass pi(0) = 1/8 -> 1/2
    assert conductance_set(P, pi, [0]) == pytest.approx(0.5)
    # contiguous half-arc: two crossing edges
    assert conductance_set(P, pi, [0, 1, 2, 3]) == pytest.approx(1 / 8)
    with pytest.raises(GraphError):
        conductance_set(P, pi, [])


def test_probability_flow_symmetry_and_edge_value():
    g = graphs.gnp_connected_graph(7, 0.5, 4)
    pi = chain.degree_stationary(g).pi
    P = chain.lazy_matrix(g)
    a = np.zeros(7, bool)
    a[[0, 2, 5]] = True
    # reversibility makes flow symmetric; each crossing edge carries 1/(4m)
    q_ab = probability_flow(P, pi, a, ~a)
    q_ba = probability_flow(P, pi, ~a, a)
    assert q_ab == pytest.approx(q_ba, abs=1e-14)
    crossing = len(graphs.edge_boundary(g, np.flatnonzero(a)))
    assert q_ab == pytest.approx(crossing / (4 * g.m))


def test_conductance_exhaustive_matches_subset_scan():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        g = graphs.gnp_connected_graph(n, 0.5, rng)
        pi = chain.degree_stationary(g).pi
        P = chain.lazy_matrix(g)
        best = min(
            conductance_set(P, pi, [v for v in range(n) if mask >> v & 1])
            for mask in range(1, 2 ** n - 1))
        assert chain.conductance(P, pi) == pytest.approx(best, abs=1e-12)


def test_conductance_capability_error():
    g = graphs.cycle_graph(24)
    pi = chain.degree_stationary(g).pi
    P = chain.lazy_matrix(g)
    with pytest.raises(CapabilityError):
        chain.conductance(P, pi)


def test_cheeger_inequality_small_graphs():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        g = graphs.gnp_connected_graph(n, 0.5, rng)
        pi = chain.degree_stationary(g).pi
        P = chain.lazy_matrix(g)
        lam = chain.spectral_gap(P, pi)
        phi = chain.conductance(P, pi)
        assert 2 * phi >= lam - 1e-9
        assert lam >= phi * phi / 2 - 1e-9


def test_conductance_profile_and_cut_profile():
    k4 = graphs.complete_graph(4)
    # single vertex: boundary d, Phi_1 = 1; pairs: boundary 4, Phi_2 = 4/6
    assert conductance_profile(k4, 1) == pytest.approx(1.0)
    assert conductance_profile(k4, 2) == pytest.approx(4 / 6)
    # profile at k=1 recovers the minimum single-vertex boundary over degree
    g = graphs.cycle_graph(6)
    d = int(g.degree[0])
    assert conductance_profile(g, 1) * d == pytest.approx(g.degree.min())
    with pytest.raises(GraphError):
        conductance_profile(graphs.path_graph(4), 1)  # irregular
