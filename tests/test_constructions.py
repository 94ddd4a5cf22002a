import numpy as np
import pytest

from dynwalks import chain, constructions, graphs, schedule, walks
from dynwalks.errors import GraphError


def test_expander_matching_structure(edge_set):
    s = constructions.build_expander_matching(32, seed=0)
    odd = s.step(1)
    even = s.step(2)
    assert set(odd.degree) == {3}
    assert set(even.degree) == {1}
    assert edge_set(even) == {(i, i + 16) for i in range(16)}
    # odd steps are disconnected across the halves
    assert not graphs.is_connected(odd)
    assert all(int(u < 16) == int(v < 16) for u, v in odd.edges)
    # fresh expanders at different odd steps
    assert s.step(1) != s.step(3)
    # deterministic given the seed
    again = constructions.build_expander_matching(32, seed=0)
    assert again.step(3) == s.step(3)
    with pytest.raises(GraphError):
        constructions.build_expander_matching(10, seed=0)


def test_expander_matching_certifies_uniform():
    s = constructions.build_expander_matching(16, seed=1)
    dist = schedule.validate_common_stationary(s, horizon=6)
    assert np.allclose(dist.pi, 1 / 16)


def test_expander_matching_window_gap_and_mixing():
    s = constructions.build_expander_matching(64, seed=11)
    # oracle run: gaps in [0.065, 0.085] over the first 12 windows at this seed
    assert schedule.min_window_gap(s, 2, 12, pi=s.pi) >= 0.05
    t64 = walks.measure_mixing(s, s.pi)
    assert t64 == 10  # frozen oracle value for seed 11
    s128 = constructions.build_expander_matching(128, seed=11)
    t128 = walks.measure_mixing(s128, s128.pi)
    assert t128 <= t64 + 10  # Theta(log n) growth, not polynomial


def test_complete_then_cycle_phases():
    s = constructions.build_complete_then_cycle(12)
    T = s.meta["complete_phase"]
    assert T == int(np.ceil(2.0 * 12 * np.log(12)))
    assert s.step(1) == graphs.complete_graph(12)
    assert s.step(T) == graphs.complete_graph(12)
    after = s.step(T + 1)
    assert after == graphs.cycle_graph(12)
    assert set(after.degree) == {2}
    dist = schedule.validate_common_stationary(s, horizon=T + 2)
    assert np.allclose(dist.pi, 1 / 12)


def test_nomixing_structure_and_guards():
    s = constructions.build_nomixing(1000, 5, seed=7)
    sizes = s.meta["set_sizes"]
    assert sizes == [1000, 100, 10, 1]
    assert s.meta["active_steps"] == 3
    pad = s.meta["active_start"]
    assert pad == 2
    pad_step = s.step(1)
    assert set(pad_step.degree) == {3}
    act = s.step(pad + 1)
    # gadget sources get 6 extra edges, receivers exactly 1
    assert int(act.degree[:100].max()) == 9
    assert int(act.degree[:100].min()) == 9
    assert set(act.degree[100:700].tolist()) == {4}
    assert graphs.is_connected(act)
    with pytest.raises(GraphError):
        # S_1 would need 6 receivers but only 5 vertices remain outside it
        constructions.build_nomixing(6, 3, seed=0)


def test_nomixing_mass_growth_small():
    n, t = 200, 4
    s = constructions.build_nomixing(n, t, seed=3)
    sizes = s.meta["set_sizes"]
    start = s.meta["active_start"]
    trace = walks.evolve_trace(s, np.full(n, 1.0 / n), t)
    for i in range(1, s.meta["active_steps"] + 1):
        assert trace[start + i][:sizes[i]].min() >= (10 / 8) ** i / n


def test_nohitting_period_and_pi():
    for n in (8, 12, 16):
        s = constructions.build_nohitting(n)
        assert s.period == 3 * n
        dist = schedule.validate_common_stationary(s, horizon=1)
        k = n // 4
        z = 1 - 2.0 ** (-k)
        assert dist.pi[0] == pytest.approx(2.0 ** (-3) / z)
        assert dist.pi[-1] == pytest.approx(2.0 ** (-(k + 2)) / z)
        assert dist.pi.sum() == pytest.approx(1.0)


def test_nohitting_step_shapes():
    s = constructions.build_nohitting(16)
    first = s.step(1)
    # complete bipartite between 2 vertices of V1 and the 4 of V2
    assert first.m == 8
    assert set(first.degree[:4].tolist()) == {0, 4}
    assert all(d in (0, 2) for d in first.degree[4:8])
    # rest block: steps 6(k-1)+1 .. 6k are empty
    assert s.step(19).m == 0
    assert s.step(24).m == 0
    # mirror: step 6k+j equals step 6k+1-j
    for j in range(1, 10):
        assert s.step(24 + j) == s.step(24 + 1 - j)
    # period wraps
    assert s.step(49) == s.step(1)


def test_nohitting_period_union_connected():
    for n in (8, 16):
        s = constructions.build_nohitting(n)
        union = schedule.window_union_graph(s, 0, 3 * n)
        assert graphs.is_connected(union)


def test_nohitting_doubled_matching_cadence(edge_set):
    n = 8
    d = constructions.build_nohitting_doubled(n)
    interval = 3 * n + 2
    m1 = d.step(interval)
    assert edge_set(m1) == {(u, u + n) for u in range(4, 8)}
    assert d.step(2 * interval) == m1
    # non-matching steps are two disjoint copies of the base schedule
    base = constructions.build_nohitting(n)
    g = d.step(1)
    b = base.step(1)
    assert edge_set(g) == edge_set(b) | {(u + n, v + n) for u, v in edge_set(b)}
    dist = schedule.validate_common_stationary(d, horizon=2 * interval)
    assert dist.pi.sum() == pytest.approx(1.0)


def test_nohitting_doubled_builds_its_base_period_once(edge_set):
    """Every generated doubled step reads one cached base period."""
    n = 20
    constructions._nohitting_period.cache_clear()
    d = constructions.build_nohitting_doubled(n)
    steps = [d.step(t) for t in range(1, 3 * n + 3)]
    assert constructions._nohitting_period.cache_info().misses == 1
    assert edge_set(steps[-1]) == {(u, u + n) for u in range(n - 4, n)}


def test_torus_schedule_relabeling_invariants():
    s = constructions.build_torus_schedule(2, 4, seed=9)
    g1, g2 = s.step(1), s.step(2)
    assert g1 != g2  # genuinely time-varying
    for g in (g1, g2):
        assert set(g.degree) == {4}
        assert g.m == 32
        assert graphs.is_connected(g)
    dist = schedule.validate_common_stationary(s, horizon=8)
    assert np.allclose(dist.pi, 1 / 16)
    assert constructions.build_torus_schedule(2, 4, seed=9).step(5) == s.step(5)
    with pytest.raises(GraphError):
        constructions.build_torus_schedule(4, 4, seed=0)


def test_build_dispatch_and_export(tmp_path):
    s = constructions.BUILDERS["torus_schedule"](dim=2, side=4, seed=2)
    path = tmp_path / "t.json"
    schedule.save_schedule(s, path)
    loaded = schedule.load_schedule(path)
    assert loaded.step(3) == s.step(3)
    assert np.array_equal(loaded.pi, s.pi)

    circ = constructions.BUILDERS["circulant"](n=12, rho=2)
    assert circ.step(1) == graphs.circulant_graph(12, 2)
    barb = constructions.BUILDERS["barbell"](n=9)
    assert chain.detailed_balance_residual(
        chain.lazy_matrix(barb.step(1)), barb.pi) < 1e-12
