import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

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
    for target in (-1, 8, {3, -1}, {3, 8}, set()):  # a target outside 0..n-1, or none
        with pytest.raises(GraphError):
            walks.exact_hitting(s, 0, target)
        with pytest.raises(GraphError):
            walks.exact_hitting_batch(s, [(0, 3), (0, target)])
    with pytest.raises(GraphError):
        walks.exact_hitting_batch(s, [])


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


def test_step_operator_choice_at_the_benchmark_shapes():
    """P^T dense for small or dense graphs, CSC for large sparse ones."""
    nohitting = constructions.build_nohitting(16)
    assert all(isinstance(nohitting.step_matrix(t), np.ndarray) for t in range(1, 49))
    for n in (16, 32, 64):
        assert isinstance(static(graphs.random_regular_graph(n, 4, n)).step_matrix(1), np.ndarray)
    for n in (512, 1024):
        assert isinstance(static(graphs.random_regular_graph(n, 4, n)).step_matrix(1),
                          sparse.csc_array)
    nohitting = constructions.build_nohitting(256)
    assert all(isinstance(nohitting.step_matrix(t), sparse.csc_array) for t in range(1, 769))
    dense = graphs.gnp_connected_graph(512, 0.5, 3)
    assert isinstance(static(dense).step_matrix(1), np.ndarray)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_long_period_builds_each_step_operator_once(monkeypatch):
    """nohitting(48) has period 144: two traversals of two periods of hitting
    build 144 operators."""
    builds = _count_calls(monkeypatch, chain, "lazy_matrix")
    s = constructions.build_nohitting(48)
    for _ in range(2):
        est = walks.exact_hitting(s, 0, set(range(44, 48)), t_max=288)
        assert est.T == 288
    assert len(builds) == 144


def _outputs(s, pairs, steps):
    """The trace from vertex 0 and a hitting batch, as arrays."""
    trace = walks.evolve_trace(s, 0, steps)
    hits = walks.exact_hitting_batch(s, pairs, t_max=steps)
    return np.array(trace), np.array([(e.lower, e.residual_mass, e.T) for e in hits])


GENERATED_STEPS = 60


@pytest.mark.parametrize("n", [32, schedule.SPARSE_MIN_N], ids=["dense", "csc"])
def test_generated_step_operators_match_stored_ones(monkeypatch, n):
    """A generator schedule builds a step's operator on every call and keeps
    none; a finite schedule of copies of its first T graphs keeps one per step.
    Every output of the two is bit-identical.  The copies keep the stored
    schedule's CSC operators off the generator's own graphs."""
    T = GENERATED_STEPS
    gen = constructions.build_random_regular_schedule(n, 4, seed=n)
    stored = schedule.GraphSchedule(
        n, prefix_runs=[(graphs.StaticGraph(n, gen.step(t).edges), 1) for t in range(1, T + 1)])
    pi = np.full(n, 1.0 / n)

    def run(s):
        return *_outputs(s, [(0, n - 1), (1, {2, 3})], T), walks.measure_mixing(s, pi, horizon=T)

    want = run(stored)
    build = chain.lazy_matrix if n < schedule.SPARSE_MIN_N else chain.lazy_transpose_csc
    assert isinstance(stored.step_matrix(1), np.ndarray if n < schedule.SPARSE_MIN_N
                      else sparse.csc_array)
    builds = _count_calls(monkeypatch, chain, build.__name__)
    got = run(gen)
    assert len(builds) == 2 * T + want[2]  # trace and hitting batch, then mixing
    assert gen._operators == {}
    assert len(stored._operators) == T
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def test_stored_csc_steps_build_one_operator_per_graph(monkeypatch):
    """nohitting(256) holds 379 graph objects in its 768 steps: one traversal
    builds 379 CSC operators and a second schedule over the same graphs builds
    none.  Both give the outputs of a schedule over a copy per step, which
    builds one per step."""
    n = 256
    constructions._nohitting_period.cache_clear()  # graphs that hold no operator yet
    builds = _count_calls(monkeypatch, chain, "lazy_transpose_csc")
    first = constructions.build_nohitting(n)
    assert len({id(g) for g, _ in first.cycle_runs}) == 379
    pairs = [(0, n - 1), (1, 200), (130, 7)]
    want = _outputs(first, pairs, 4 * n)
    assert len(builds) == 379
    got = _outputs(constructions.build_nohitting(n), pairs, 4 * n)
    assert len(builds) == 379
    copies = schedule.GraphSchedule(
        n, cycle_runs=[(graphs.StaticGraph(n, g.edges), rep) for g, rep in first.cycle_runs])
    ref = _outputs(copies, pairs, 4 * n)
    assert len(builds) == 379 + 3 * n
    for a, b, c in zip(want, got, ref, strict=True):
        assert np.array_equal(a, c) and np.array_equal(b, c)


def test_kept_csc_operator_is_read_only():
    """A kept operator is shared, so it cannot be reordered in place."""
    g = graphs.random_regular_graph(schedule.SPARSE_MIN_N, 4, 1)
    op = static(g).step_matrix(1)
    assert isinstance(op, sparse.csc_array) and op is static(g).step_matrix(1)
    assert not any(a.flags.writeable for a in (op.data, op.indices, op.indptr))
    with pytest.raises(ValueError):
        op.sort_indices()


def test_generated_csc_steps_leave_no_operator_on_their_graphs():
    n = schedule.SPARSE_MIN_N
    gen = constructions.build_random_regular_schedule(n, 4, seed=3)
    assert isinstance(gen.step_matrix(1), sparse.csc_array)
    _outputs(gen, [(0, n - 1)], 20)
    assert gen._operators == {} and len(gen._graphs) == 24
    assert not any(hasattr(g, "_lazy_transpose_csc") for g in gen._graphs.values())


def _graph(n, m, isolated, seed):
    """m distinct random edges among n - isolated vertices; the others are isolated."""
    rng = np.random.default_rng(seed)
    live = rng.permutation(n)[:n - isolated]
    iu, iv = np.triu_indices(live.size, 1)
    pick = rng.choice(iu.size, size=min(m, iu.size), replace=False)
    return graphs.StaticGraph(n, np.column_stack([live[iu[pick]], live[iv[pick]]]))


@st.composite
def operator_schedules(draw):
    """A schedule near n = SPARSE_MIN_N whose steps straddle the density rule:
    edgeless steps, edge counts around the last one a CSR step may have,
    dense steps and isolated vertices, in a prefix and a period."""
    n = draw(st.integers(schedule.SPARSE_MIN_N - 2, schedule.SPARSE_MIN_N + 6))
    cut = (n * n // schedule.SPARSE_FILL - n) // 2
    edges = st.one_of(st.just(0), st.integers(1, cut - 4), st.integers(cut - 3, cut + 3),
                      st.integers(cut + 4, 4 * cut))

    def run():
        g = _graph(n, draw(edges), draw(st.integers(0, n // 4)), draw(st.integers(0, 2**32)))
        return g, draw(st.integers(1, 3))

    prefix = [run()] if draw(st.booleans()) else None
    return schedule.GraphSchedule(n, prefix_runs=prefix,
                                  cycle_runs=[run() for _ in range(draw(st.integers(1, 4)))])


def _mixing_reference(mats, pi):
    """("mixed", t) or ("truncated", worst squared norm) by dense row products."""
    M = np.eye(len(pi))
    for t, P in enumerate(mats, 1):
        M = M @ P
        worst = ((M * M / pi).sum(axis=1) - 1.0).max()
        if worst <= (1.0 / 3.0) * (1.0 / 3.0):  # as measure_mixing squares its threshold
            return "mixed", t
    return "truncated", worst


OPERATOR_STEPS = 12

_EDGELESS_AND_ISOLATED = schedule.GraphSchedule(
    schedule.SPARSE_MIN_N,
    cycle_runs=[(graphs.StaticGraph(schedule.SPARSE_MIN_N, []), 2),
                (_graph(schedule.SPARSE_MIN_N, 300, 40, 0), 1),
                (_graph(schedule.SPARSE_MIN_N, 3000, 0, 1), 1)])


@settings(max_examples=40)
@given(s=operator_schedules(), seed=st.integers(0, 2**32))
@example(s=_EDGELESS_AND_ISOLATED, seed=0)
def test_step_operators_match_the_dense_lazy_matrix(s, seed):
    """Oracle for the chosen step operators: every propagation through them
    equals the same propagation through chain.lazy_matrix, to 1e-12."""
    n, T = s.n, OPERATOR_STEPS
    mats = [chain.lazy_matrix(s.step(t)) for t in range(1, T + 1)]
    for t, P in enumerate(mats, 1):
        op = s.step_matrix(t)
        csc = n >= schedule.SPARSE_MIN_N and (n + 2 * s.step(t).m) * schedule.SPARSE_FILL <= n * n
        assert isinstance(op, sparse.csc_array if csc else np.ndarray)
        if csc:
            np.testing.assert_allclose(op.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            op = op.toarray()
        assert np.array_equal(op, P.T)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    rng = np.random.default_rng(seed)
    p0 = rng.random(n) + 0.1  # mass on every vertex, the isolated ones too
    p0 /= p0.sum()
    ref = [p0]
    for P in mats:
        ref.append(ref[-1] @ P)
    for got, want in zip(walks.evolve_trace(s, p0, T), ref, strict=True):
        close(got, want)
    close(walks.evolve(s, p0, T).p, ref[T])

    order = rng.permutation(n)  # a point source, then the targets of four queries
    queries = [(int(order[0]), int(order[1]))]
    for size in (1, 3, 8):
        src = p0.copy()
        src[order[1:size + 1]] = 0.0
        queries.append((src / src.sum(), set(order[1:size + 1].tolist())))
    ests = walks.exact_hitting_batch(s, queries, t_max=T, eps=0.0)
    for (source, target), est in zip(queries, ests):
        x = walks._point_or_dist(n, source)
        mask = walks._target_mask(n, target)
        lower = 1.0
        for P in mats[:est.T]:
            x = x @ P
            x[mask] = 0.0
            lower += x.sum()
        close(est.lower, lower)
        close(est.residual_mass, x.sum())

    pi = np.full(n, 1.0 / n)
    try:
        got = "mixed", walks.measure_mixing(s, pi, horizon=T)
    except TruncationError as err:
        got = "truncated", err.value
    want = _mixing_reference(mats, pi)
    assert got[0] == want[0]
    close(got[1], want[1])


def _relabelled(s, sigma):
    """s with vertex v renamed sigma[v] in every step; a graph object that
    several runs share stays shared."""
    copies = {}

    def runs(rs):
        for g, _ in rs:
            if id(g) not in copies:
                copies[id(g)] = graphs.StaticGraph(s.n, sigma[g.edges])
        return [(copies[id(g)], rep) for g, rep in rs]

    return schedule.GraphSchedule(s.n, prefix_runs=runs(s.prefix_runs),
                                  cycle_runs=runs(s.cycle_runs or []) or None)


_A, _B = _graph(schedule.SPARSE_MIN_N, 400, 10, 2), _graph(schedule.SPARSE_MIN_N, 300, 0, 3)
# CSC steps whose graphs recur in the prefix and the period, around a dense one
_SHARED_GRAPHS = schedule.GraphSchedule(
    schedule.SPARSE_MIN_N, prefix_runs=[(_B, 1)],
    cycle_runs=[(_A, 1), (_B, 2), (_A, 1), (_graph(schedule.SPARSE_MIN_N, 3000, 0, 4), 1),
                (_A, 2)])


@settings(max_examples=40)
@given(s=operator_schedules(), seed=st.integers(0, 2**32))
@example(s=_SHARED_GRAPHS, seed=1)
def test_relabelling_permutes_every_output(s, seed):
    """Oracle independent of the step operators: naming vertex v sigma[v] in
    every step permutes every output by sigma, to 1e-12, and keeps t_mix."""
    n, T = s.n, OPERATOR_STEPS
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(n)
    r = _relabelled(s, sigma)

    def renamed(x):
        y = np.empty_like(x)
        y[sigma] = x
        return y

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    p0 = rng.random(n) + 0.1
    p0 /= p0.sum()
    for got, want in zip(walks.evolve_trace(r, renamed(p0), T), walks.evolve_trace(s, p0, T),
                         strict=True):
        close(got[sigma], want)

    u, v, *rest = rng.choice(n, 6, replace=False).tolist()
    queries = [(u, {v}), (u, set(rest)), (v, {u, *rest})]
    moved = [(int(sigma[a]), {int(sigma[b]) for b in tgt}) for a, tgt in queries]
    ests = walks.exact_hitting_batch(s, queries, t_max=T, eps=0.0)
    for got, want in zip(walks.exact_hitting_batch(r, moved, t_max=T, eps=0.0), ests,
                         strict=True):
        assert (got.T, got.status) == (want.T, want.status)
        close([got.lower, got.residual_mass], [want.lower, want.residual_mass])

    pi = rng.random(n) + 0.1
    pi /= pi.sum()

    def mixing(s, pi):
        try:
            return "mixed", walks.measure_mixing(s, pi, horizon=T)
        except TruncationError as err:
            return "truncated", err.value

    got, want = mixing(r, renamed(pi)), mixing(s, pi)
    assert got[0] == want[0]
    if got[0] == "mixed":
        assert got[1] == want[1]
    else:
        close(got[1], want[1])


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


def _walk_one_trial(s, start, rng, kind, target_mask, horizon):
    """One trajectory, one step at a time, in whole blocks; returns (stop time, censored)."""
    x = int(start)
    if kind == "hit" and target_mask[x]:
        return 0, False
    visited = None
    remaining = 0
    if kind == "cover":
        visited = np.zeros(s.n, dtype=bool)
        visited[x] = True
        remaining = s.n - 1
        if remaining == 0:
            return 0, False
    t = 0
    while t < horizon:
        count = min(64, horizon - t)
        coins = rng.random(count)
        picks = rng.random(count)
        for i in range(count):
            t += 1
            if coins[i] >= 0.5:
                g = s.step(t)
                lo, hi = g.adj_indptr[x], g.adj_indptr[x + 1]
                deg = hi - lo
                if deg > 0:
                    x = int(g.adj_indices[lo + int(picks[i] * deg)])
            if kind == "hit":
                if target_mask[x]:
                    return t, False
            elif kind == "cover":
                if not visited[x]:
                    visited[x] = True
                    remaining -= 1
                    if remaining == 0:
                        return t, False
    return horizon, True


def monte_carlo_one_at_a_time(s, start, seed, trials, stop, horizon):
    """Independent oracle for walks.monte_carlo: the trials run one after another."""
    kind = stop[0]
    target_mask = walks._target_mask(s.n, stop[1]) if kind == "hit" else None
    children = np.random.SeedSequence(seed).spawn(trials)
    times = np.zeros(trials, dtype=np.int64)
    censored = np.zeros(trials, dtype=bool)
    for j in range(trials):
        times[j], censored[j] = _walk_one_trial(s, start, np.random.default_rng(children[j]),
                                                kind, target_mask, horizon)
    good = times[~censored]
    mean = float(good.mean()) if good.size else float("nan")
    stderr = float(good.std(ddof=1) / np.sqrt(good.size)) if good.size > 1 else float("nan")
    return times, censored, mean, stderr


HORIZONS = (1, 63, 64, 65, 127, 128, 129, 1025)  # around 64-step block edges


@st.composite
def mc_cases(draw):
    """(schedule, start, stop rule, trials, horizon, seed); the graphs are sparse
    enough to leave isolated vertices and unreachable targets.  A hit on the
    vertices a stored schedule's union graph cuts off from the start, where
    there are any, runs every trial to the horizon."""
    family = draw(st.sampled_from(["static", "periodic", "generator"]))
    if family == "generator":
        s = constructions.build_random_regular_schedule(
            draw(st.integers(5, 12)), 4, seed=draw(st.integers(0, 99)),
            connected=draw(st.booleans()))
    else:
        n = draw(st.integers(1, 10))

        def graph():
            pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2 * n))
            return graphs.StaticGraph(n, [(u, v) for u, v in pairs if u != v])

        if family == "static":
            s = schedule.GraphSchedule(n, cycle_runs=[(graph(), 1)])
        else:
            prefix = [(graph(), draw(st.integers(1, 40)))] if draw(st.booleans()) else None
            s = schedule.GraphSchedule(n, prefix_runs=prefix, cycle_runs=[
                (graph(), draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))])
    vertex = st.integers(0, s.n - 1)
    start = draw(vertex)
    stops = [st.tuples(st.just("hit"), vertex),
             st.tuples(st.just("hit"), st.frozensets(vertex, min_size=1)),
             st.just(("cover",))]
    if family != "generator":
        union = graphs.StaticGraph(s.n, np.concatenate(
            [np.empty((0, 2), np.int64)] + [g.edges for g, _ in s.prefix_runs + s.cycle_runs]))
        cut_off = np.isinf(graphs.bfs_distances(union, start)).nonzero()[0]
        if cut_off.size:
            stops.append(st.just(("hit", frozenset(cut_off.tolist()))))
    stop = draw(st.one_of(*stops))
    return (s, start, stop, draw(st.integers(1, 24)), draw(st.sampled_from(HORIZONS)),
            draw(st.integers(0, 2**160)))


@settings(max_examples=60)
@given(case=mc_cases())
# a start inside the target; cover with n = 1
@example(case=(static(graphs.cycle_graph(8)), 3, ("hit", frozenset({3, 5})), 5, 64, 1))
@example(case=(schedule.GraphSchedule(1, cycle_runs=[(graphs.StaticGraph(1, []), 1)]), 0,
               ("cover",), 3, 65, 2))
# many trials that cross block edges, stop at different times and get censored
@example(case=(static(graphs.path_graph(30)), 0, ("hit", 29), 20, 2049, 3))
@example(case=(constructions.build_random_regular_schedule(12, 4, seed=3), 0, ("cover",),
               30, 1025, 4))
# every trial runs to the horizon: vertex 6 is isolated
@example(case=(static(graphs.StaticGraph(7, [(i, i + 1) for i in range(5)])), 2, ("hit", 6),
               12, 65, 5))
def test_monte_carlo_matches_one_at_a_time_oracle(case):
    s, start, stop, trials, horizon, seed = case
    mc = walks.monte_carlo(s, start, seed=seed, trials=trials, stop=stop, horizon=horizon)
    times, censored, mean, stderr = monte_carlo_one_at_a_time(s, start, seed, trials, stop,
                                                               horizon)
    assert np.array_equal(mc.times, times)
    assert np.array_equal(mc.censored, censored)
    assert mc.n_censored == int(censored.sum()) and mc.trials == trials
    for got, want in ((mc.mean, mean), (mc.stderr, stderr)):
        assert got == want or (np.isnan(got) and np.isnan(want))


def test_monte_carlo_rejects_a_start_out_of_range():
    s = static(graphs.cycle_graph(6))
    for start in (-1, 6):
        with pytest.raises(GraphError):
            walks.monte_carlo(s, start, seed=0, trials=3, stop=("cover",))


# not trials=2**32: were its guard lost, the call would allocate 2**32 trials
@pytest.mark.parametrize("kwargs", [
    dict(seed=None), dict(seed=-1), dict(seed=[1, 2]), dict(seed=1.0), dict(seed=True),
    dict(horizon=-5), dict(horizon=0), dict(trials=0),
    dict(stop=("hit", -1)), dict(stop=("hit", 6)), dict(stop=("hit", {2, 6})),
    dict(stop=("horizon",)),
])
def test_monte_carlo_rejects_inputs_it_cannot_honour(kwargs):
    s = static(graphs.cycle_graph(6))
    with pytest.raises(GraphError):
        walks.monte_carlo(s, 0, **{"seed": 0, "trials": 3, "stop": ("hit", 3), **kwargs})


# seeds on both sides of the one-word and the four-word edge
@settings(max_examples=40)
@given(seed=st.integers(0, 2**160), trials=st.integers(1, 5000))
@example(seed=0, trials=1)
@example(seed=2**32 - 1, trials=5000)
@example(seed=2**32, trials=2)
@example(seed=2**128 - 1, trials=300)
@example(seed=2**128, trials=3)
def test_spawned_seed_words_match_seed_sequence_spawn(seed, trials):
    children = np.random.SeedSequence(seed).spawn(trials)
    want = np.array([c.generate_state(4, np.uint64) for c in children])
    got = walks._spawned_seed_words(seed, trials)
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    for rng, child in zip(walks._trial_rngs(seed, trials), children):
        assert np.array_equal(rng.random(200), np.random.default_rng(child).random(200))


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
    for u, v in ((-1, 1), (16, 1), (0, -1), (0, 16)):
        with pytest.raises(GraphError):
            walks.verify_midpoint_bound(s, u, v, 3, 4, s.pi)
    rng = np.random.default_rng(11)
    for _ in range(40):
        u, v = int(rng.integers(16)), int(rng.integers(16))
        t1 = int(rng.integers(0, 8))
        t2 = t1 + int(rng.integers(1, 20))
        assert walks.verify_midpoint_bound(s, u, v, t1, t2, s.pi).ok


def oracle_midpoint_bound(s, u, v, t1, t2, pi):
    """verify_midpoint_bound as five separate propagations from the point
    starts, before the v and u sides shared their prefixes."""
    if not t1 < t2:
        raise GraphError("need t1 < t2")
    pi = chain._pi_array(pi)
    e_u, e_v = walks._point_or_dist(s.n, u), walks._point_or_dist(s.n, v)
    p = walks._propagate(s, e_v, range(t1 + 1, t2 + 1))
    lhs = abs(p[u] / pi[u] - 1.0)
    mid = (t1 + t2) // 2

    def variance_after(p_start, ts):
        return chain.variance_pi(walks._propagate(s, p_start, ts) / pi, pi)

    term_v = variance_after(e_v, range(t1 + 1, mid + 1))
    term_u = variance_after(e_u, range(t2, mid, -1))
    rhs = max(term_u, term_v)
    if mid >= 1:
        alt_u = variance_after(e_u, range(t2, mid - 1, -1))
        alt_v = variance_after(e_v, range(1, mid))
        alt_rhs = max(alt_u, alt_v)
        alt_ok = alt_rhs - lhs >= -walks.DECAY_TOL
    else:
        alt_rhs, alt_ok = float("nan"), True
    margin = rhs - lhs
    return walks.MidpointCheck(lhs=lhs, term_u=term_u, term_v=term_v,
                               rhs=rhs, margin=margin, ok=margin >= -walks.DECAY_TOL,
                               alt_rhs=alt_rhs, alt_ok=alt_ok)


_MIDPOINT_SCHEDULES = {"generated": constructions.build_random_regular_schedule(16, 4, seed=6),
                       "stored": constructions.build_nohitting(16)}


@settings(max_examples=80)
@given(kind=st.sampled_from(sorted(_MIDPOINT_SCHEDULES)), u=st.integers(0, 15),
       v=st.integers(0, 15), t1=st.integers(0, 12), w=st.integers(1, 24))
@example(kind="generated", u=0, v=1, t1=0, w=1)  # mid = 0: no alternative split
@example(kind="stored", u=3, v=3, t1=0, w=2)
@example(kind="stored", u=2, v=9, t1=7, w=1)
def test_midpoint_bound_matches_the_five_pass_oracle(kind, u, v, t1, w):
    s = _MIDPOINT_SCHEDULES[kind]
    got = walks.verify_midpoint_bound(s, u, v, t1, t1 + w, s.pi)
    want = oracle_midpoint_bound(s, u, v, t1, t1 + w, s.pi)
    for f in dataclasses.fields(walks.MidpointCheck):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b or (a != a and b != b), f.name  # NaN equals NaN


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
