"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of operations.  An operation
builds its schedule afresh, so the step caches start cold the way a suite
sees them, and calls the program.  Its output is captured outside the timed
region and checked against the reference computations in ``oracles``.

Workloads are chosen so that every ROADMAP item does most of its work in one
workload and almost none in another:

- dynamic-regular: step generation (random regular steps, fresh every step).
- periodic-large: step operators and propagation on repeating steps.
- commute-static: linear solves, BFS and cut sums; no schedule or walk code.
- mc-trajectories: the per-trial, per-step Monte Carlo loop.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import importlib
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles

PROGRAM_MODULES = ("graphs", "chain", "schedule", "walks", "constructions", "commute",
                   "reporting", "suites")


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]               # timed: returns (subject, output)
    capture: Callable[[Any, Any], dict]    # untimed: evidence for the check
    check: Callable[[dict], None]          # raises oracles.CheckError


@dataclass
class Workload:
    name: str
    build: Callable[[Any, int, str], list]  # (program, seed, out dir) -> ops
    min_rounds: int                         # timed rounds every run makes at least
    tail_pct: int                           # op_tail_ms percentile
    trace_rounds: int                       # timed rounds of a traced run


def load_program(src_dir: str) -> SimpleNamespace:
    """Import dynwalks afresh from ``src_dir`` and return its modules."""
    for key in [k for k in sys.modules if k == "dynwalks" or k.startswith("dynwalks.")]:
        del sys.modules[key]
    pkg = importlib.import_module("dynwalks")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(os.path.abspath(src_dir), "dynwalks"):
        raise ImportError(f"dynwalks imported from {where}, not from {src_dir}")
    return SimpleNamespace(**{m: importlib.import_module(f"dynwalks.{m}") for m in PROGRAM_MODULES})


def plain(obj):
    """Dataclasses and numpy scalars as plain Python values, for the checks."""
    if dataclasses.is_dataclass(obj):
        return {k: plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def step_edges(s, T: int) -> list[np.ndarray]:
    return [s.step(t).edges.copy() for t in range(1, T + 1)]


def draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def distinct_pairs(rng, n: int, k: int) -> list[tuple[int, int]]:
    out = []
    while len(out) < k:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# dynamic-regular: generator-backed random regular schedules
# ---------------------------------------------------------------------------

DECAY_N, DECAY_STEPS = 32, 200
MID_N, MID_T1, MID_T2 = 16, 10, 40
WORST_SIZES, WORST_PAIRS, WORST_TMAX = (16, 32, 64), 4, 200


def _decay_op(P, kind: str, seed: int, start: int) -> Op:
    n, d = DECAY_N, 4
    pi = np.full(n, 1.0 / n)

    def run():
        s = P.constructions.build_random_regular_schedule(n, d, seed=seed)
        verifier = (P.walks.variance_decay_checks if kind == "eq-mihai"
                    else P.walks.ratio_deviation_checks)
        return s, verifier(s, start, DECAY_STEPS, s.pi)

    def capture(s, out):
        return {"steps": step_edges(s, DECAY_STEPS), "checks": plain(out)}

    def check(ev):
        oracles.check_regular_steps(n, d, ev["steps"])
        verify = oracles.check_decay if kind == "eq-mihai" else oracles.check_deviation
        verify(n, ev["steps"], start, pi, ev["checks"])

    return Op(kind, run, capture, check)


def _midpoint_op(P, instances) -> Op:
    """Several lemma-inftoell2 instances, each on its own schedule."""
    n = MID_N
    pi = np.full(n, 1.0 / n)

    def run():
        scheds, out = [], []
        for seed, d, u, v in instances:
            s = P.constructions.build_random_regular_schedule(n, d, seed=seed)
            out.append(P.walks.verify_midpoint_bound(s, u, v, MID_T1, MID_T2, s.pi))
            scheds.append(s)
        return scheds, out

    def capture(scheds, out):
        return {"steps": [step_edges(s, MID_T2) for s in scheds], "checks": plain(out)}

    def check(ev):
        for (seed, d, u, v), steps, chk in zip(instances, ev["steps"], ev["checks"]):
            oracles.check_regular_steps(n, d, steps)
            oracles.check_midpoint(n, steps, pi, u, v, MID_T1, MID_T2, chk)

    return Op("lemma-inftoell2", run, capture, check)


def _worst_case_op(P, n: int, seed: int, pairs) -> Op:
    """measure_mixing then exact_hitting_batch on one connected schedule."""
    pi = np.full(n, 1.0 / n)

    def run():
        s = P.constructions.build_random_regular_schedule(n, 4, seed=seed, connected=True)
        t_mix = P.walks.measure_mixing(s, s.pi)
        return s, (t_mix, P.walks.exact_hitting_batch(s, pairs, t_max=WORST_TMAX))

    def capture(s, out):
        t_mix, hits = out
        return {"steps": step_edges(s, max(t_mix, hits[0].T)), "t_mix": t_mix, "hits": plain(hits)}

    def check(ev):
        steps = ev["steps"]
        oracles.check_regular_steps(n, 4, steps, need_connected=True)
        mats = lambda t: oracles.lazy_matrix(n, steps[t - 1])  # noqa: E731
        profile = oracles.product_profile(n, mats, pi, ev["t_mix"])
        oracles.check_threshold_crossing(lambda t: profile[t], ev["t_mix"], 1.0 / 3.0)
        oracles.check_hitting(n, mats, pairs, ev["hits"], eps=1e-9, t_max=WORST_TMAX)

    return Op(f"worst-case-n{n}", run, capture, check)


def dynamic_regular(P, seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng([1, seed])
    ops = []
    for kind in ("eq-mihai", "lemma-imp"):
        ops += [_decay_op(P, kind, draw_seed(rng), int(rng.integers(DECAY_N))) for _ in range(4)]
    for _ in range(4):
        instances = [(draw_seed(rng), 3 + j % 2, *distinct_pairs(rng, MID_N, 1)[0])
                     for j in range(6)]
        ops.append(_midpoint_op(P, instances))
    ops += [_worst_case_op(P, n, draw_seed(rng), distinct_pairs(rng, n, WORST_PAIRS))
            for n in WORST_SIZES]
    return ops


# ---------------------------------------------------------------------------
# periodic-large: static and periodic schedules at n = 256..1024
# ---------------------------------------------------------------------------

HIT_TMAX = 1024
NOHITTING_N = 256  # period 3n = 768 exceeds the 128-entry step-matrix cache


def _connected_regular(P, n: int, d: int, rng):
    while True:
        g = P.graphs.random_regular_graph(n, d, draw_seed(rng))
        if P.graphs.is_connected(g):
            return g


def _static_hitting_op(P, label: str, g, pi, pairs) -> Op:
    def run():
        s = P.constructions.build_static(g, pi=pi)
        return s, P.walks.exact_hitting_batch(s, pairs, t_max=HIT_TMAX)

    def capture(s, out):
        return {"edges": s.step(1).edges.copy(), "hits": plain(out)}

    def check(ev):
        oracles.check_simple(g.n, ev["edges"], "graph")
        M = oracles.lazy_matrix(g.n, ev["edges"])
        oracles.check_hitting(g.n, lambda t: M, pairs, ev["hits"], eps=1e-9, t_max=HIT_TMAX)
        oracles.check_static_hitting(M, pairs, ev["hits"])

    return Op(f"hit-{label}", run, capture, check)


def _static_mixing_op(P, label: str, g, pi) -> Op:
    def run():
        s = P.constructions.build_static(g, pi=pi)
        return s, P.walks.measure_mixing(s, pi)

    def capture(s, out):
        return {"edges": s.step(1).edges.copy(), "t_mix": out}

    def check(ev):
        M = oracles.lazy_matrix(g.n, ev["edges"])
        pi_own = oracles.degrees(g.n, ev["edges"]) / (2.0 * len(ev["edges"]))
        oracles.expect(np.allclose(pi, pi_own, rtol=1e-12, atol=0), "stationary distribution differs")
        oracles.check_threshold_crossing(oracles.spectral_profile(M, pi_own), ev["t_mix"], 1 / 3)

    return Op(f"mix-{label}", run, capture, check)


def _static_evolve_op(P, label: str, g, pi, start: int, T: int) -> Op:
    def run():
        s = P.constructions.build_static(g, pi=pi)
        return s, P.walks.evolve(s, start, T, pi=pi)

    def capture(s, out):
        return {"edges": s.step(1).edges.copy(), "state": plain(out)}

    def check(ev):
        M = oracles.lazy_matrix(g.n, ev["edges"])
        want = oracles.point(g.n, start)
        for _ in range(T):
            want = want @ M
        oracles.check_distributions(ev["state"]["p"], want, f"evolve {label}")
        oracles.check_distributions(ev["state"]["rho"] * pi, want, f"rho {label}")

    return Op(f"evolve-{label}", run, capture, check)


def _nohitting_ops(P, pi, rng) -> list[Op]:
    n = NOHITTING_N
    pairs = distinct_pairs(rng, n, 3)
    start = int(rng.integers(n))

    def period_check(period):
        oracles.expect(len(period) == 3 * n, f"period {len(period)} != 3n")
        for t, e in enumerate(period, start=1):
            oracles.check_simple(n, e, f"step {t}")
        # stationarity of the declared pi, from the benchmark's own matrices
        for t, e in enumerate(period, start=1):
            res = np.abs(pi @ oracles.lazy_matrix(n, e) - pi).max()
            oracles.expect(res <= 1e-10, f"pi not stationary at step {t}")
        return lambda t: oracles.lazy_matrix(n, period[(t - 1) % len(period)])

    def run_hit():
        s = P.constructions.build_nohitting(n)
        return s, P.walks.exact_hitting_batch(s, pairs, t_max=HIT_TMAX)

    def run_trace():
        s = P.constructions.build_nohitting(n)
        return s, P.walks.evolve_trace(s, start, HIT_TMAX)

    def capture(s, out):
        return {"period": step_edges(s, s.period), "out": plain(out)}

    def check_hit(ev):
        mats = period_check(ev["period"])
        oracles.check_hitting(n, mats, pairs, ev["out"], eps=1e-9, t_max=HIT_TMAX)

    def check_trace(ev):
        mats = period_check(ev["period"])
        oracles.check_distributions(ev["out"], oracles.trace(n, mats, start, HIT_TMAX),
                                    "evolve_trace nohitting")

    return [Op("hit-nohitting", run_hit, capture, check_hit),
            Op("trace-nohitting", run_trace, capture, check_trace)]


def periodic_large(P, seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng([2, seed])
    sparse512 = _connected_regular(P, 512, 4, rng)
    sparse1024 = _connected_regular(P, 1024, 4, rng)
    dense512 = P.graphs.gnp_connected_graph(512, 0.5, draw_seed(rng))
    pi512, pi1024, pi_dense = (P.chain.degree_stationary(g).pi
                               for g in (sparse512, sparse1024, dense512))
    nohitting_pi = P.schedule.validate_common_stationary(
        P.constructions.build_nohitting(NOHITTING_N), 1).pi
    ops = [
        _static_hitting_op(P, "sparse512", sparse512, pi512, distinct_pairs(rng, 512, 3)),
        _static_hitting_op(P, "dense512", dense512, pi_dense, distinct_pairs(rng, 512, 3)),
        _static_mixing_op(P, "sparse512", sparse512, pi512),
        _static_mixing_op(P, "dense512", dense512, pi_dense),
        _static_evolve_op(P, "sparse1024", sparse1024, pi1024, int(rng.integers(1024)), 256),
        _static_evolve_op(P, "dense512", dense512, pi_dense, int(rng.integers(512)), 512),
    ]
    return ops + _nohitting_ops(P, nohitting_pi, rng)


# ---------------------------------------------------------------------------
# commute-static: static graphs only
# ---------------------------------------------------------------------------

SUITE_OPS = 8
SANDWICH_N, SANDWICH_P = 12, 0.3
CIRCULANTS = ((64, 2), (96, 3), (128, 4))


def _suite_op(P, suite_seed: int, path: str) -> Op:
    """One seed of the commute-bounds suite, CSV report included."""
    n = 4 + suite_seed % 7
    p = 0.45 + 0.1 * (suite_seed % 3)

    def run():
        cfg = P.suites.ExperimentConfig(suite="commute-bounds", seeds=[suite_seed])
        return None, P.suites.run_suite(cfg, out_path=path)

    def capture(_, out):
        reports, written, all_passed = out
        g = P.graphs.gnp_connected_graph(n, p, [60, suite_seed])  # the suite's own graph
        return {"rows": [r.row() for r in reports], "path": written, "passed": all_passed,
                "edges": g.edges.copy()}

    def check(ev):
        oracles.expect(ev["passed"], "suite reported a failed bound")
        with open(ev["path"]) as fh:
            body = list(csv.reader(line for line in fh if not line.startswith("#")))
        oracles.expect(body[1:] == ev["rows"], "CSV body differs from the returned rows")
        rows = {r[1]: r for r in ev["rows"] if r[2].startswith("gnp")}
        edges = ev["edges"]
        C = oracles.commute_times(n, edges)
        nw = max(oracles.nash_williams(n, edges, s, t) - C[s, t]
                 for s in range(n) for t in range(n) if s != t)
        oracles.expect(abs(float(rows["nw-lower"][6]) - nw) <= 1e-9 * C.max(),
                       f"worst NW - C {rows['nw-lower'][6]} != {nw!r}")
        oracles.expect(float(rows["cutsum-upper"][6]) <= 1e-9 * C.max(), "C exceeds the cut sum")
        oracles.expect(len(ev["rows"]) == 2 + 2 * 10, "unexpected number of report rows")

    return Op("run-suite", run, capture, check)


def _sandwich_op(P, label: str, g) -> Op:
    """Every ordered pair: exact commute time, cut-sum upper and Nash-Williams lower."""
    n = g.n

    def run():
        C = P.commute
        exact = [[0.0] * n for _ in range(n)]
        upper = [[0.0] * n for _ in range(n)]
        lower = [[0.0] * n for _ in range(n)]
        for s in range(n):
            for t in range(n):
                if s != t:
                    exact[s][t] = C.exact_commute(g, s, t)
                    upper[s][t] = C.cut_sum_upper(g, s, t)[1].flow
                    lower[s][t] = C.nash_williams_lower(
                        g, s, t, C.distance_layer_cutsets(g, s, t)).flow
        return g, (exact, upper, lower)

    def capture(g, out):
        return {"edges": g.edges.copy(), "out": out}

    def check(ev):
        oracles.check_simple(n, ev["edges"], "graph")
        oracles.check_sandwich(n, ev["edges"], *ev["out"])
        if label.startswith("path"):
            oracles.check_path(n, ev["out"][0][0][n - 1])

    return Op(f"sandwich-{label}", run, capture, check)


def _max_commute_op(P, n: int, rho: int) -> Op:
    g = P.graphs.circulant_graph(n, rho)

    def run():
        return g, P.commute.max_commute(g)

    def capture(g, out):
        return {"edges": g.edges.copy(), "max": out}

    def check(ev):
        e = ev["edges"]
        oracles.expect(bool(np.all(oracles.degrees(n, e) == 2 * rho)), "circulant not 2rho-regular")
        want = oracles.commute_times(n, e).max()
        oracles.expect(oracles.close(ev["max"], want), f"max commute {ev['max']!r} != {want!r}")

    return Op(f"max-commute-n{n}", run, capture, check)


def commute_static(P, seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng([3, seed])
    # suite seeds 6 mod 7 draw the suite's largest graphs, n = 10, at all three
    # densities, so that every suite operation does about the same work
    base = 21 * int(rng.integers(0, 10**6)) + 6
    ops = [_suite_op(P, base + 7 * j, os.path.join(out_dir, f"commute-bounds-{j}.csv"))
           for j in range(SUITE_OPS)]
    ops += [_sandwich_op(P, f"gnp{SANDWICH_N}-{j}",
                         P.graphs.gnp_connected_graph(SANDWICH_N, SANDWICH_P, draw_seed(rng)))
            for j in range(2)]
    ops.append(_sandwich_op(P, "path12", P.graphs.path_graph(12)))
    ops += [_max_commute_op(P, n, rho) for n, rho in CIRCULANTS]
    return ops


# ---------------------------------------------------------------------------
# mc-trajectories: Monte Carlo trials
# ---------------------------------------------------------------------------

CTC_N = 128
CTC_TARGET = (64, 65, 66, 67)  # hit trials end on any of four vertices
CTC_HIT_OPS, CTC_HIT_TRIALS, CTC_COVER_TRIALS = 12, 2500, 320
RR_SIZES, RR_TRIALS = (16, 32), 50


@functools.cache
def _ctc_hitting(target) -> float:
    """Exact E[tau] from vertex 0 to ``target`` on complete-then-cycle."""
    return oracles.complete_then_cycle_hitting(CTC_N, oracles.complete_phase(CTC_N), 0, target)


def _ctc_op(P, stop: str, seed: int) -> Op:
    n = CTC_N
    T0 = oracles.complete_phase(n)
    rule, trials = (("hit", CTC_TARGET), CTC_HIT_TRIALS) if stop == "hit" else (("cover",), CTC_COVER_TRIALS)

    def run():
        s = P.constructions.build_complete_then_cycle(n)
        return s, P.walks.monte_carlo(s, 0, seed=seed, trials=trials, stop=rule, horizon=400_000)

    def capture(s, out):
        return {"steps": [s.step(t).edges.copy() for t in (1, T0, T0 + 1, T0 + 2)],
                "mc": plain(out)}

    def check(ev):
        first, last, cyc, cyc2 = ev["steps"]
        for label, e in (("step 1", first), (f"step {T0}", last)):
            oracles.check_simple(n, e, label)
            oracles.expect(len(e) == n * (n - 1) // 2, f"{label} is not complete")
        oracles.check_simple(n, cyc, "cycle")
        oracles.expect(len(cyc) == n and oracles.connected(n, cyc)
                       and bool(np.all(oracles.degrees(n, cyc) == 2)), "cycle phase is not a cycle")
        oracles.expect(np.array_equal(cyc, cyc2), "cycle phase changes")
        if stop == "hit":
            oracles.check_monte_carlo_mean(ev["mc"], _ctc_hitting(CTC_TARGET))
        else:
            oracles.check_cover(ev["mc"], n, _ctc_hitting(n // 2))

    return Op(f"{stop}-ctc", run, capture, check)


def _rr_hit_op(P, n: int, sched_seed: int, seed: int, target: int) -> Op:
    """Hit trials on a generator-backed schedule: the first trial generates the steps."""
    T = 25 * n  # long enough that the mass still alive adds < 1 to the exact mean

    def run():
        s = P.constructions.build_random_regular_schedule(n, 4, seed=sched_seed, connected=True)
        return s, P.walks.monte_carlo(s, 0, seed=seed, trials=RR_TRIALS, stop=("hit", target),
                                      horizon=100_000)

    def capture(s, out):
        return {"steps": step_edges(s, T), "mc": plain(out)}

    def check(ev):
        steps = ev["steps"]
        oracles.check_regular_steps(n, 4, steps, need_connected=True)
        lower, residual = oracles.absorbing(lambda t: oracles.lazy_matrix(n, steps[t - 1]),
                                            [oracles.point(n, 0)],
                                            [oracles.target_mask(n, target)], T)
        # the tail beyond T is at most residual * (the 200 n^2 propagation horizon)
        oracles.check_monte_carlo_mean(ev["mc"], lower[0], slack=residual[0] * 200 * n * n)

    return Op(f"hit-rr{n}", run, capture, check)


def mc_trajectories(P, seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng([4, seed])
    ops = [_ctc_op(P, "hit", draw_seed(rng)) for _ in range(CTC_HIT_OPS)]
    ops.append(_ctc_op(P, "cover", draw_seed(rng)))
    ops += [_rr_hit_op(P, n, draw_seed(rng), draw_seed(rng), int(rng.integers(1, n)))
            for n in RR_SIZES]
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("dynamic-regular", dynamic_regular, min_rounds=3, tail_pct=75, trace_rounds=1),
        Workload("periodic-large", periodic_large, min_rounds=8, tail_pct=80, trace_rounds=2),
        Workload("commute-static", commute_static, min_rounds=4, tail_pct=80, trace_rounds=1),
        Workload("mc-trajectories", mc_trajectories, min_rounds=3, tail_pct=75, trace_rounds=1),
    )
}
