import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwalks import chain, constructions, graphs, schedule, walks
from dynwalks.errors import GraphError, ValidationError


def regular_alternating(n=8):
    a = graphs.cycle_graph(n)
    b = graphs.random_regular_graph(n, 2, seed=3)
    return schedule.GraphSchedule(n, cycle_runs=[(a, 1), (b, 1)])


def test_step_indexing_and_period():
    s = regular_alternating()
    assert s.kind == "periodic"
    assert s.period == 2
    assert s.step(1) == s.step(3) == s.step(11)
    assert s.step(2) == s.step(4)
    with pytest.raises(GraphError):
        s.step(0)


@settings(max_examples=100)
@given(st.lists(st.integers(1, 50), max_size=6), st.lists(st.integers(1, 50), max_size=6))
def test_step_serves_runs_like_the_expanded_list(prefix_reps, cycle_reps):
    graphs_ = [graphs.StaticGraph(4, [(0, 1 + i % 3)]) for i in range(12)]
    prefix = list(zip(graphs_[:6], prefix_reps))
    cycle = list(zip(graphs_[6:], cycle_reps))
    flat_prefix = [g for g, rep in prefix for _ in range(rep)]
    flat_cycle = [g for g, rep in cycle for _ in range(rep)]
    s = schedule.GraphSchedule(4, prefix_runs=prefix, cycle_runs=cycle)
    if cycle:
        flat = flat_prefix + 3 * flat_cycle
        assert s.kind == "periodic" and s.period == len(flat_cycle)
    else:
        flat = flat_prefix
        assert s.kind == "finite" and s.horizon == len(flat)
        with pytest.raises(GraphError):
            s.step(len(flat) + 1)
    keys = {}
    for t, g in enumerate(flat, start=1):
        assert s.step(t) is g
        assert keys.setdefault(s.step_key(t), g) is g
    assert not s._graphs


def test_finite_schedule_bounds():
    g = graphs.cycle_graph(5)
    s = schedule.GraphSchedule(5, prefix_runs=[(g, 3)])
    assert s.kind == "finite"
    assert s.horizon == 3
    s.step(3)
    with pytest.raises(GraphError):
        s.step(4)


def test_mixed_vertex_count_rejected():
    with pytest.raises(GraphError):
        schedule.GraphSchedule(5, cycle_runs=[(graphs.cycle_graph(4), 1)])


def test_validate_regular_schedule_uniform():
    s = regular_alternating()
    dist = schedule.validate_common_stationary(s, horizon=10)
    assert np.allclose(dist.pi, 1 / 8)


def test_validate_degree_change_names_step():
    a = graphs.cycle_graph(8)
    b = graphs.complete_graph(8)
    s = schedule.GraphSchedule(8, cycle_runs=[(a, 1), (b, 1)])
    with pytest.raises(ValidationError) as err:
        schedule.validate_common_stationary(s, horizon=4)
    assert err.value.step == 2
    # uniform certifies the same steps once the schedule declares it
    s = schedule.GraphSchedule(8, cycle_runs=[(a, 1), (b, 1)], pi=np.full(8, 1 / 8))
    dist = schedule.validate_common_stationary(s, horizon=4)
    assert np.allclose(dist.pi, 1 / 8)


def test_validate_rejects_wrong_candidate():
    bad = np.array([0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    s = schedule.GraphSchedule(8, cycle_runs=regular_alternating().cycle_runs, pi=bad)
    with pytest.raises(ValidationError) as err:
        schedule.validate_common_stationary(s, horizon=4)
    assert err.value.step == 1


def test_validate_disconnected_needs_declared_pi():
    g = graphs.StaticGraph(4, [(0, 1)])
    s = schedule.GraphSchedule(4, cycle_runs=[(g, 1)])
    with pytest.raises(ValidationError):
        schedule.validate_common_stationary(s, horizon=1)
    s = schedule.GraphSchedule(4, cycle_runs=[(g, 1)], pi=np.full(4, 0.25))
    dist = schedule.validate_common_stationary(s, horizon=1)
    assert np.array_equal(dist.pi, np.full(4, 0.25))


def test_validate_checks_each_distinct_graph_once(monkeypatch):
    """nohitting(16) holds 19 graph objects in its 48 steps."""
    calls = []
    residual = chain.pi_step_residual

    def counted(g, pi):
        calls.append(g)
        return residual(g, pi)

    monkeypatch.setattr(chain, "pi_step_residual", counted)
    schedule.validate_common_stationary(constructions.build_nohitting(16), horizon=1)
    assert len(calls) == 19


@pytest.mark.parametrize("pi", [np.full(8, 1 / 8), None], ids=["declared", "degree"])
def test_validate_names_the_first_step_of_a_recurring_bad_graph(pi):
    """The bad graph is one object at steps 3 and 7: the residual (declared pi)
    or the degree comparison (no pi) fails first at step 3."""
    good, bad = graphs.cycle_graph(8), graphs.path_graph(8)
    runs = [(good, 2), (bad, 1), (good, 3), (bad, 1), (good, 1)]
    s = schedule.GraphSchedule(8, cycle_runs=runs, pi=pi)
    with pytest.raises(ValidationError) as err:
        schedule.validate_common_stationary(s, horizon=8)
    assert err.value.step == 3


def test_window_average_identical_graphs_equals_step():
    g = graphs.cycle_graph(6)
    s = constructions.build_static(g, pi=np.full(6, 1 / 6))
    wa = schedule.window_average(s, 0, 4)
    assert np.allclose(wa.matrix, chain.lazy_matrix(g))
    assert wa.ergodic and wa.gap > 0


def test_window_average_full_period_start_invariant():
    s = regular_alternating()
    pi = np.full(8, 1 / 8)
    w0 = schedule.window_average(s, 0, 2, pi=pi)
    w1 = schedule.window_average(s, 1, 2, pi=pi)
    assert np.allclose(w0.matrix, w1.matrix)


def test_window_average_disconnected_support():
    g = graphs.StaticGraph(4, [(0, 1), (2, 3)])
    h = graphs.StaticGraph(4, [(1, 2), (0, 3)])
    both = schedule.GraphSchedule(4, cycle_runs=[(g, 1), (h, 1)],
                                  pi=np.full(4, 0.25))
    wa2 = schedule.window_average(both, 0, 2)
    assert wa2.ergodic and wa2.gap > 0
    only = schedule.GraphSchedule(4, cycle_runs=[(g, 1)], pi=np.full(4, 0.25))
    wa1 = schedule.window_average(only, 0, 1)
    assert not wa1.ergodic and wa1.gap == 0.0


def test_window_average_reversible_wrt_pi():
    s = constructions.build_nohitting(8)
    wa = schedule.window_average(s, 3, 10, pi=s.pi)
    assert chain.detailed_balance_residual(wa.matrix, s.pi) < 1e-10


def test_min_window_gap_static_expander():
    g = graphs.expander_graph(16, seed=1)
    s = constructions.build_static(g, pi=np.full(16, 1 / 16))
    gap = chain.spectral_gap(chain.lazy_matrix(g), s.pi)
    assert schedule.min_window_gap(s, 1, 5) == pytest.approx(gap)


def test_min_window_gap_zero_when_any_window_disconnected():
    g = graphs.StaticGraph(4, [(0, 1)])
    s = schedule.GraphSchedule(4, cycle_runs=[(g, 1)], pi=np.full(4, 0.25))
    assert schedule.min_window_gap(s, 2, 3) == 0.0


def test_schedule_json_round_trip_periodic(tmp_path):
    s = constructions.build_nohitting(8)
    path = tmp_path / "sched.json"
    schedule.save_schedule(s, path)
    loaded = schedule.load_schedule(path)
    assert loaded.n == s.n and loaded.kind == s.kind and loaded.period == s.period
    assert np.array_equal(loaded.pi, s.pi)
    for t in (1, 5, 24, 48, 49):
        assert loaded.step(t) == s.step(t)
    # byte-exact round trip
    path2 = tmp_path / "again.json"
    schedule.save_schedule(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_schedule_json_round_trip_generator(tmp_path):
    s = constructions.build_expander_matching(16, seed=4)
    path = tmp_path / "gen.json"
    schedule.save_schedule(s, path)
    loaded = schedule.load_schedule(path)
    for t in (1, 2, 3, 7):
        assert loaded.step(t) == s.step(t)
    path2 = tmp_path / "gen2.json"
    schedule.save_schedule(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_schedule_json_prefix_runs(tmp_path):
    s = constructions.build_complete_then_cycle(12)
    path = tmp_path / "ctc.json"
    schedule.save_schedule(s, path)
    loaded = schedule.load_schedule(path)
    T = s.meta["complete_phase"]
    assert loaded.step(T) == graphs.complete_graph(12)
    assert loaded.step(T + 1) == graphs.cycle_graph(12)
    assert schedule.schedule_hash(loaded) == schedule.schedule_hash(s)


def test_schedule_file_loads_identical_steps_as_one_graph(tmp_path):
    """A file's steps with the same edges, in the prefix or the period, load
    as one graph object, so their step operator is built once; the loaded
    schedule hashes and propagates as the built one."""
    s = constructions.build_nohitting(256)
    path = tmp_path / "nohitting.json"
    schedule.save_schedule(s, path)
    loaded = schedule.load_schedule(path)
    assert len({id(g) for g, _ in loaded.cycle_runs}) == 379
    assert schedule.schedule_hash(loaded) == schedule.schedule_hash(s)
    pairs = [(1, 200), (0, 255), (130, 7)]
    for a, b in zip(walks.exact_hitting_batch(loaded, pairs, t_max=1024),
                    walks.exact_hitting_batch(s, pairs, t_max=1024), strict=True):
        assert a == b
    assert np.array_equal(walks.evolve_trace(loaded, 1, 800), walks.evolve_trace(s, 1, 800))

    s = schedule.GraphSchedule(8, prefix_runs=[(graphs.cycle_graph(8), 2)],
                               cycle_runs=[(graphs.complete_graph(8), 1),
                                           (graphs.cycle_graph(8), 1)])
    schedule.save_schedule(s, path)
    loaded = schedule.load_schedule(path)
    assert loaded.prefix_runs[0][0] is loaded.cycle_runs[1][0]
    assert schedule.schedule_hash(loaded) == schedule.schedule_hash(s)


def test_schedule_hash_distinguishes():
    a = constructions.build_nohitting(8)
    b = constructions.build_nohitting(12)
    assert schedule.schedule_hash(a) != schedule.schedule_hash(b)
    assert schedule.schedule_hash(a) == schedule.schedule_hash(constructions.build_nohitting(8))
