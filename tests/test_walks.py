import numpy as np
import pytest

from dynwalks import chain, constructions, graphs, schedule, walks
from dynwalks.errors import GraphError, TruncationError


def static(g, pi=None):
    if pi is None:
        pi = chain.degree_stationary(g).pi
    return constructions.build_static(g, pi=pi)


def test_evolve_t0_and_k2():
    s = static(graphs.complete_graph(2))
    st0 = walks.evolve(s, 0, 0)
    assert np.allclose(st0.p, [1.0, 0.0])
    st1 = walks.evolve(s, 0, 1)
    assert np.allclose(st1.p, [0.5, 0.5])
    with pytest.raises(GraphError):
        walks.evolve(s, 0, -1)


def test_evolve_exposes_likelihood_ratio():
    s = static(graphs.cycle_graph(8))
    pi = np.full(8, 1 / 8)
    st = walks.evolve(s, 0, 5, pi=pi)
    assert st.rho is not None
    assert float(np.sum(st.rho * pi)) == pytest.approx(1.0)


def test_evolve_alternating_expander_matching_converges():
    em = constructions.build_expander_matching(64, seed=11)
    st = walks.evolve(em, 0, 40, pi=em.pi)
    # oracle run: 3.09e-5 at this seed; well under the 1e-3 requirement
    assert np.abs(st.rho - 1).max() < 1e-3


def test_measure_mixing_complete_graphs():
    # l2 mixing of lazy K_n needs ~log4(9n) steps; oracle values frozen
    for n, expected in ((8, 3), (16, 4), (24, 4)):
        s = static(graphs.complete_graph(n))
        assert walks.measure_mixing(s, np.full(n, 1 / n)) == expected


def mixing_time_definition_scan(s, pi, threshold=1.0 / 3.0, horizon=10_000):
    """Independent definition-level oracle: per-start propagation, no shared product."""
    for t in range(1, horizon + 1):
        if all(chain.variance_pi(walks.evolve(s, u, t).p / pi, pi) <= threshold * threshold
               for u in range(s.n)):
            return t
    raise TruncationError("definition scan exhausted", t=horizon, value=np.nan)


def test_measure_mixing_matches_definition_scan():
    for build in (lambda: graphs.cycle_graph(8), lambda: graphs.complete_graph(16)):
        g = build()
        pi = chain.degree_stationary(g).pi
        s = static(g, pi)
        assert walks.measure_mixing(s, pi) == mixing_time_definition_scan(s, pi)


def test_measure_mixing_schedule_of_complete_graphs_is_static_value():
    g = graphs.complete_graph(12)
    pi = np.full(12, 1 / 12)
    rep = schedule.GraphSchedule(12, cycle_runs=[(g, 1), (g, 1)], pi=pi)
    assert walks.measure_mixing(rep, pi) == walks.measure_mixing(static(g, pi), pi)


def test_measure_mixing_truncation_error_carries_state():
    s = static(graphs.cycle_graph(16))
    with pytest.raises(TruncationError) as err:
        walks.measure_mixing(s, np.full(16, 1 / 16), horizon=3)
    assert err.value.t == 3
    assert err.value.value > (1 / 3) ** 2


def test_exact_hitting_oracles():
    k2 = static(graphs.complete_graph(2))
    assert walks.exact_hitting(k2, 0, 1).lower == pytest.approx(2.0, abs=1e-6)
    p3 = static(graphs.path_graph(3))
    # first-step analysis: simple-walk end-to-end is 4, laziness doubles it
    assert walks.exact_hitting(p3, 0, 2).lower == pytest.approx(8.0, abs=1e-6)
    c16 = static(graphs.cycle_graph(16))
    # lazy cycle antipode: 2 d (n - d) = 128
    assert walks.exact_hitting(c16, 0, 8).lower == pytest.approx(128.0, abs=1e-4)


def test_exact_hitting_set_target_and_guards():
    g = graphs.cycle_graph(8)
    s = static(g)
    single = walks.exact_hitting(s, 0, 3).lower
    pair = walks.exact_hitting(s, 0, {3, 5}).lower
    assert pair < single
    with pytest.raises(GraphError):
        walks.exact_hitting(s, 3, {3})


def test_exact_hitting_truncated_status():
    s = static(graphs.cycle_graph(16))
    est = walks.exact_hitting(s, 0, 8, t_max=10)
    assert est.status == "truncated"
    assert est.residual_mass > 1e-9
    assert est.lower < 128


def test_exact_hitting_batch_matches_single():
    s = constructions.build_random_regular_schedule(16, 4, seed=5)
    qs = [(0, 3), (1, {7, 9}), (5, 12)]
    batch = walks.exact_hitting_batch(s, qs)
    for q, est in zip(qs, batch):
        single = walks.exact_hitting(s, q[0], q[1])
        assert est.lower == pytest.approx(single.lower, rel=1e-9)


def test_monte_carlo_k2_geometric_mean():
    s = static(graphs.complete_graph(2))
    mc = walks.monte_carlo(s, 0, seed=0, trials=4000, stop=("hit", 1))
    assert abs(mc.mean - 2.0) <= 3 * mc.stderr
    assert mc.n_censored == 0


def test_monte_carlo_matches_exact_hitting_on_cycle():
    s = static(graphs.cycle_graph(16))
    exact = walks.exact_hitting(s, 0, 8).lower
    mc = walks.monte_carlo(s, 0, seed=77, trials=400, stop=("hit", 8))
    assert abs(mc.mean - exact) <= 3 * mc.stderr


def test_monte_carlo_deterministic_and_censoring():
    s = static(graphs.cycle_graph(12))
    a = walks.monte_carlo(s, 0, seed=5, trials=50, stop=("hit", 6))
    b = walks.monte_carlo(s, 0, seed=5, trials=50, stop=("hit", 6))
    assert np.array_equal(a.times, b.times)
    trunc = walks.monte_carlo(s, 0, seed=5, trials=50, stop=("hit", 6), horizon=3)
    assert trunc.n_censored > 0
    assert trunc.trials == 50


def test_monte_carlo_cover_on_complete_graph():
    s = static(graphs.complete_graph(6))
    mc = walks.monte_carlo(s, 0, seed=9, trials=800, stop=("cover",))
    # lazy coupon collector over the n-1 unseen vertices: 2 (n-1) H_{n-1}
    expected = 2 * 5 * sum(1 / k for k in range(1, 6))
    assert abs(mc.mean - expected) <= 4 * mc.stderr


def test_variance_decay_and_monotonicity():
    s = constructions.build_random_regular_schedule(16, 4, seed=2)
    checks = walks.variance_decay_checks(s, 0, 60, s.pi)
    assert all(c.ok for c in checks)
    variances = [checks[0].var_before] + [c.var_after for c in checks]
    assert all(a >= b - 1e-10 for a, b in zip(variances, variances[1:]))


def test_ratio_deviation_checks_hold():
    s = constructions.build_random_regular_schedule(16, 3, seed=4)
    checks = walks.ratio_deviation_checks(s, 0, 60, s.pi)
    assert all(c.ok for c in checks)
    assert any(c.deviation > 0 for c in checks)


def test_window_average_decay_check_on_nonuniform_pi():
    s = constructions.build_nohitting(8)
    chk = walks.window_average_decay_check(s, 2, 8, 0, s.pi)
    assert chk.ok


def test_midpoint_bound_trivial_window_and_random():
    s = constructions.build_random_regular_schedule(16, 4, seed=6)
    chk = walks.verify_midpoint_bound(s, 0, 1, 3, 4, s.pi)
    assert chk.ok
    rng = np.random.default_rng(11)
    for _ in range(40):
        u, v = int(rng.integers(16)), int(rng.integers(16))
        t1 = int(rng.integers(0, 8))
        t2 = t1 + int(rng.integers(1, 20))
        assert walks.verify_midpoint_bound(s, u, v, t1, t2, s.pi).ok


def test_midpoint_bound_decays_on_static_expander():
    g = graphs.expander_graph(16, seed=3)
    s = static(g, np.full(16, 1 / 16))
    pi = np.full(16, 1 / 16)
    small = walks.verify_midpoint_bound(s, 0, 1, 0, 4, pi)
    large = walks.verify_midpoint_bound(s, 0, 1, 0, 24, pi)
    assert large.lhs < small.lhs
    assert large.rhs < small.rhs


def test_negative_dust_guard():
    with pytest.raises(GraphError):
        walks._clamp(np.array([0.5, 0.6, -1e-6]))
    cleaned = walks._clamp(np.array([0.5, 0.5, -1e-15]))
    assert cleaned.min() >= 0
    assert cleaned.sum() == pytest.approx(1.0)
