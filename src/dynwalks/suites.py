"""Named verification suites, one per acceptance criterion.

Each suite is a deterministic function of its keyword-only knobs: it builds
schedules or graphs from pinned seeds, checks the relevant inequalities, and
returns BoundReport rows.  The signature is the one declaration of which
``ExperimentConfig`` knobs a suite reads, of their defaults, and of any rule
their values must meet (``Annotated[type, check]``, checked before the suite
runs).  ``run_suite`` writes the rows as CSV; re-running a suite with an
identical config yields a byte-identical CSV body.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from . import chain, commute, constructions, graphs, schedule, walks
from .errors import GraphError
from .reporting import BoundReport, default_out_dir, write_report_csv
from .walks import DECAY_TOL

EXACT_TOL = 1e-9


# the ExperimentConfig fields a suite can read, one `dynwalks suite` flag each
KNOBS = ("sizes", "seeds", "trials", "eps")


@dataclass(init=False)
class ExperimentConfig:
    """Overrides for a suite's knobs; unknown keys are rejected up front.

    A suite reads the knobs its signature names, with the defaults written
    there; ``run_suite`` rejects a set knob the suite does not read.
    """

    suite: str
    sizes: list | None
    seeds: list | None
    trials: int | None
    eps: float | None
    out: str | None

    def __init__(self, suite: str, out: str | None = None, **knobs):
        unknown = set(knobs) - set(KNOBS)
        if unknown:
            raise GraphError(f"unknown config keys: {sorted(unknown)}")
        self.suite, self.out = suite, out
        self.sizes, self.seeds, self.trials, self.eps = (knobs.get(k) for k in KNOBS)
        for name, low in (("sizes", 1), ("seeds", 0)):
            val = getattr(self, name)
            if val is None:
                continue
            if not (isinstance(val, list) and val and all(_is_int(x) for x in val)):
                raise GraphError(f"{name} must be a non-empty list of ints; got {val!r}")
            if min(val) < low:
                raise GraphError(f"{name} must be >= {low}; got {val!r}")
        if self.trials is not None and not (_is_int(self.trials) and self.trials >= 1):
            raise GraphError(f"trials must be an int >= 1; got {self.trials!r}")
        if self.eps is not None and not (_is_real(self.eps) and self.eps > 0):
            raise GraphError(f"eps must be > 0; got {self.eps!r}")

    def doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# criterion 1: per-step variance decay (eq-mihai)
# ---------------------------------------------------------------------------

def suite_eq_mihai(*, seeds=range(100)) -> list[BoundReport]:
    n, steps = 32, 200
    out = []
    for seed in seeds:
        s = constructions.build_random_regular_schedule(n, 4, seed=seed)
        checks = walks.variance_decay_checks(s, seed % n, steps, s.pi)
        worst = min(c.margin for c in checks)
        out.append(BoundReport(
            suite="eq-mihai", inequality_id="eq-mihai",
            instance=f"random-4-regular n={n} steps={steps} start={seed % n}",
            lhs=-worst, rhs=0.0, tolerance=DECAY_TOL, provenance="PAPER",
            n=n, seed=seed, schedule_hash=schedule.schedule_hash(s),
            extra={"violations": sum(not c.ok for c in checks)}))
    return out


# ---------------------------------------------------------------------------
# criterion 2: pointwise deviation bound (lemma-imp)
# ---------------------------------------------------------------------------

def suite_lemma_imp(*, seeds=range(100)) -> list[BoundReport]:
    n, steps = 32, 200
    out = []
    for seed in seeds:
        s = constructions.build_random_regular_schedule(n, 4, seed=seed)
        checks = walks.ratio_deviation_checks(s, seed % n, steps, s.pi)
        worst = min(c.margin for c in checks)
        out.append(BoundReport(
            suite="lemma-imp", inequality_id="lemma-imp",
            instance=f"random-4-regular n={n} steps={steps} start={seed % n}",
            lhs=-worst, rhs=0.0, tolerance=DECAY_TOL, provenance="PAPER",
            n=n, seed=seed, schedule_hash=schedule.schedule_hash(s),
            extra={"triggered": sum(c.deviation > 0 for c in checks),
                   "violations": sum(not c.ok for c in checks)}))
    return out


# ---------------------------------------------------------------------------
# criterion 3: window-average decay (thm-average, first inequality)
# ---------------------------------------------------------------------------

def _thm_average_cases(seeds):
    widths = [1, 2, 4, 8, 16]
    for seed in seeds:
        if seed < 40:
            n = [8, 16, 32][seed % 3]
            d = 3 + (seed % 2)
            s = constructions.build_random_regular_schedule(n, d, seed=seed)
            yield seed, s, s.pi, seed % 4, widths[seed % 5], seed % n
        elif seed < 70:
            n = [16, 32][seed % 2]
            s = constructions.build_expander_matching(n, seed=seed)
            yield seed, s, s.pi, seed % 4, [2, 4, 8, 16][seed % 4], seed % n
        elif seed < 90:
            n = 9 + (seed % 24)
            g = graphs.gnp_connected_graph(n, 0.4, seed)
            pi = chain.degree_stationary(g).pi
            s = constructions.build_static(g, pi=pi, name=f"static-gnp-n{n}")
            yield seed, s, pi, 0, widths[seed % 5], seed % n
        else:
            n = [8, 16][seed % 2]
            s = constructions.build_nohitting(n)
            yield seed, s, s.pi, seed % (3 * n), [4, 8, 16][seed % 3], seed % n


def suite_thm_average(*, seeds=range(100)) -> list[BoundReport]:
    out = []
    for seed, s, pi, t1, w, start in _thm_average_cases(seeds):
        chk = walks.window_average_decay_check(s, t1, w, start, pi)
        h = schedule.schedule_hash(s)
        out.append(BoundReport(
            suite="thm-average", inequality_id="thm-average",
            instance=f"{s.name} t1={t1} w={w} start={start}",
            lhs=chk.bound, rhs=chk.var_drop, tolerance=DECAY_TOL, provenance="PAPER",
            n=s.n, seed=seed, schedule_hash=h,
            extra={"gap": chk.gap, "dirichlet_avg": chk.dirichlet_avg}))
        # second chained inequality, normalized: E_Pbar(rho) >= gap * Var(rho)
        out.append(BoundReport(
            suite="thm-average", inequality_id="thm-average-normalized",
            instance=f"{s.name} t1={t1} w={w} start={start}",
            lhs=chk.gap * chk.var_start, rhs=chk.dirichlet_avg, tolerance=DECAY_TOL,
            provenance="PAPER", n=s.n, seed=seed, schedule_hash=h))
    return out


# ---------------------------------------------------------------------------
# criterion 4: midpoint bound (lemma-inftoell2)
# ---------------------------------------------------------------------------

def suite_midpoint(*, seeds=range(500)) -> list[BoundReport]:
    n = 16
    out = []
    for seed in seeds:
        rng = np.random.default_rng([4242, seed])
        d = 3 + (seed % 2)
        s = constructions.build_random_regular_schedule(n, d, seed=seed)
        u, v = int(rng.integers(n)), int(rng.integers(n))
        t1 = int(rng.integers(0, 11))
        t2 = t1 + int(rng.integers(1, 31))
        chk = walks.verify_midpoint_bound(s, u, v, t1, t2, s.pi)
        out.append(BoundReport(
            suite="lemma-inftoell2", inequality_id="lemma-inftoell2",
            instance=f"u={u} v={v} t1={t1} t2={t2} d={d}",
            lhs=chk.lhs, rhs=chk.rhs, tolerance=DECAY_TOL, provenance="PAPER",
            n=n, seed=seed, schedule_hash=schedule.schedule_hash(s),
            extra={"term_u": chk.term_u, "term_v": chk.term_v,
                   "alt_split_rhs": chk.alt_rhs,
                   "alt_split_ok": bool(chk.alt_ok)}))
    return out


# ---------------------------------------------------------------------------
# criterion 5: Cheeger sandwich and ball growth
# ---------------------------------------------------------------------------

def canonical_small_graphs():
    """Deterministic library of small connected graphs on 3..8 vertices: the
    named families at every feasible size plus 20 seeded G(n,p) samples each."""
    out = []
    for n in range(3, 9):
        out.append((f"path-{n}", graphs.path_graph(n)))
        out.append((f"cycle-{n}", graphs.cycle_graph(n)))
        out.append((f"complete-{n}", graphs.complete_graph(n)))
        if n >= 5:
            out.append((f"circulant-{n}-2", graphs.circulant_graph(n, 2)))
        if n % 2 == 0:
            out.append((f"complete-prism-{n}", graphs.complete_prism_graph(n)))
        if n % 3 == 0 and n >= 6:
            out.append((f"barbell-{n}", graphs.barbell_graph(n)))
        for k in range(20):
            out.append((f"gnp-{n}-{k}", graphs.gnp_connected_graph(n, 0.5, [71, n, k])))
    return out


def _ballsize_worst(g: graphs.StaticGraph) -> float:
    """max over (u, x >= 1) of min(delta x / 3, n) - ball(u, x); <= 0 required."""
    delta = g.min_degree()
    worst = -math.inf
    for u in range(g.n):
        dist = graphs.bfs_distances(g, u)
        for x in range(1, g.n + 1):
            ball = int(np.sum(dist <= x))
            worst = max(worst, min(delta * x / 3.0, g.n) - ball)
    return worst


def _cheeger_rows(name, g, seed=None) -> list[BoundReport]:
    pi = chain.degree_stationary(g).pi
    P = chain.lazy_matrix(g)
    lam = chain.spectral_gap(P, pi)
    phi = chain.conductance(P, pi)
    return [
        BoundReport(suite="cheeger-ballsize", inequality_id="cheeger-upper",
                    instance=name, lhs=lam, rhs=2 * phi, tolerance=EXACT_TOL,
                    provenance="PAPER", n=g.n, seed=seed),
        BoundReport(suite="cheeger-ballsize", inequality_id="cheeger-lower",
                    instance=name, lhs=phi * phi / 2.0, rhs=lam, tolerance=EXACT_TOL,
                    provenance="PAPER", n=g.n, seed=seed),
        BoundReport(suite="cheeger-ballsize", inequality_id="ballsize",
                    instance=name, lhs=_ballsize_worst(g), rhs=0.0, tolerance=0.0,
                    provenance="PAPER", n=g.n, seed=seed),
    ]


def suite_cheeger_ballsize(*, seeds=range(500)) -> list[BoundReport]:
    out = []
    for name, g in canonical_small_graphs():
        out.extend(_cheeger_rows(name, g))
    for seed in seeds:
        n = 4 + (seed % 9)
        p = (0.3, 0.5, 0.7)[seed % 3]
        g = graphs.gnp_connected_graph(n, p, [52, seed])
        out.extend(_cheeger_rows(f"random-{n}-p{p}", g, seed=seed))
    return out


# ---------------------------------------------------------------------------
# criterion 6: worst-case mixing/hitting scaling on regular schedules
# ---------------------------------------------------------------------------

def _random_pairs(n: int, count: int, seed) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            pairs.append((u, v))
    return pairs


def suite_worst_case(*, sizes=(16, 32, 64), eps=1e-9, trials=2000) -> list[BoundReport]:
    out = []
    t_hit, t_mix = {}, {}
    for n in sizes:
        s = constructions.build_random_regular_schedule(n, 4, seed=900 + n,
                                                        connected=True)
        if n == sizes[0]:
            s_cross = s  # reused below, with the steps it has already generated
        h = schedule.schedule_hash(s)
        t_mix[n] = walks.measure_mixing(s, s.pi)
        ests = walks.exact_hitting_batch(s, _random_pairs(n, 10, 1000 + n), eps=eps)
        t_hit[n] = max(e.lower for e in ests)
        for metric, val in (("hit", t_hit[n]), ("mix", float(t_mix[n]))):
            out.append(BoundReport(
                suite="worst-case", inequality_id=f"worsthit-{metric}-scaling",
                instance=f"n={n}", lhs=val, rhs=val, tolerance=0.0,
                provenance="DERIVED", n=n, seed=900 + n, schedule_hash=h,
                status="scaling"))
    for lo, hi in zip(sizes, sizes[1:]):
        out.append(BoundReport(
            suite="worst-case", inequality_id="worsthit-hit-ratio",
            instance=f"t_hit({hi})/t_hit({lo})",
            lhs=t_hit[hi] / t_hit[lo], rhs=5.0, tolerance=0.0,
            provenance="PAPER", n=hi))
        out.append(BoundReport(
            suite="worst-case", inequality_id="worsthit-mix-ratio",
            instance=f"t_mix({hi})/t_mix({lo})",
            lhs=t_mix[hi] / t_mix[lo], rhs=5.0, tolerance=0.0,
            provenance="PAPER", n=hi))
    # Monte Carlo cross-check at the smallest size
    n, s = sizes[0], s_cross
    ex = walks.exact_hitting(s, 0, 7 % n, eps=eps)
    mc = walks.monte_carlo(s, 0, seed=42, trials=trials,
                           stop=("hit", 7 % n), horizon=100_000)
    out.append(BoundReport(
        suite="worst-case", inequality_id="worsthit-mc-cross",
        instance=f"n={n} pair=(0,{7 % n})",
        lhs=abs(mc.mean - ex.lower), rhs=3 * mc.stderr, tolerance=0.0,
        provenance="DERIVED", n=n, seed=42, schedule_hash=schedule.schedule_hash(s),
        extra={"exact": ex.lower, "mc_mean": mc.mean, "mc_stderr": mc.stderr,
               "censored": mc.n_censored}))
    return out


# ---------------------------------------------------------------------------
# criterion 7: torus isoperimetric scaling
# ---------------------------------------------------------------------------

# (dimension, sides, hitting-time normalization, its label) of each torus family
_TORI = (
    (3, [4, 5, 6], lambda n: n, "t_hit/n"),
    (2, [8, 12, 16], lambda n: n * math.log(n), "t_hit/(n log n)"),
)


def torus_sides(sizes) -> None:
    """Reject a size that is not the side of any torus family."""
    unknown = sorted(set(sizes) - {side for _, sides, _, _ in _TORI for side in sides})
    if unknown:
        raise GraphError(f"torus-scaling: sizes {unknown} are not sides of any torus "
                         f"({', '.join(str(sides) for _, sides, _, _ in _TORI)})")


def suite_torus(*, sizes: Annotated[list | None, torus_sides] = None,
                eps=1e-6) -> list[BoundReport]:
    """``sizes`` picks sides from the families' lists (None: every side); a
    family none of whose sides is picked runs its smallest side."""
    out = []
    for dim, sides, norm, label in _TORI:
        if sizes is not None:
            sides = [s for s in sides if s in sizes] or sides[:1]
        ratios = {}
        for side in sides:
            s = constructions.build_torus_schedule(dim, side, seed=100 * dim + side)
            n = s.n
            ests = walks.exact_hitting_batch(
                s, _random_pairs(n, 20, 100 * dim + side + 1), eps=eps)
            th = max(e.lower for e in ests)
            ratios[side] = th / norm(n)
            out.append(BoundReport(
                suite="torus-scaling", inequality_id=f"twopluseps-dim{dim}-scaling",
                instance=f"side={side}", lhs=th, rhs=th, tolerance=0.0,
                provenance="DERIVED", n=n, seed=100 * dim + side,
                schedule_hash=schedule.schedule_hash(s), status="scaling",
                extra={label: ratios[side],
                       "residual": max(e.residual_mass for e in ests)}))
        band = max(ratios.values()) / min(ratios.values())
        out.append(BoundReport(
            suite="torus-scaling", inequality_id=f"twopluseps-dim{dim}-band",
            instance=f"sides={sides} {label}", lhs=band, rhs=2.0, tolerance=0.0,
            provenance="PAPER", n=max(ratios)))
    return out


# ---------------------------------------------------------------------------
# criterion 8: Prop-nohitting counterexample family
# ---------------------------------------------------------------------------

def suite_counterexamples(*, sizes=(8, 12, 16), eps=1e-9) -> list[BoundReport]:
    n = 16
    k = n // 4
    out = []
    s = constructions.build_nohitting(n)
    h = schedule.schedule_hash(s)

    worst = 0.0
    for t in range(1, 3 * n + 1):
        worst = max(worst, chain.pi_step_residual(s.step(t), s.pi))
    out.append(BoundReport(
        suite="counterexamples", inequality_id="nohitting-pi-certified",
        instance=f"n={n} all {3 * n} period steps", lhs=worst, rhs=0.0,
        tolerance=1e-10, provenance="PAPER", n=n, schedule_hash=h))

    # probability ceiling for u in V_1, v in V_k over one period
    u, v = 0, 4 * (k - 1)
    probs = [float(p[v]) for p in walks.evolve_trace(s, u, 3 * n)]
    ceiling = 2.0 ** (-(k + 2))
    out.append(BoundReport(
        suite="counterexamples", inequality_id="nohitting-ceiling-min",
        instance=f"min_t p[0,t] u={u} v={v}", lhs=min(probs), rhs=ceiling,
        tolerance=0.0, provenance="PAPER", n=n, schedule_hash=h))
    out.append(BoundReport(
        suite="counterexamples", inequality_id="nohitting-ceiling-max",
        instance=f"max_t p[0,t] u={u} v={v}", lhs=max(probs), rhs=ceiling,
        tolerance=0.0, provenance="PAPER", n=n, schedule_hash=h))

    # hitting growth across sizes
    hits = {}
    for m in sizes:
        sm = constructions.build_nohitting(m)
        km = m // 4
        target = set(range(4 * (km - 1), 4 * km))
        est = walks.exact_hitting(sm, 0, target, eps=eps)
        hits[m] = est.lower
        out.append(BoundReport(
            suite="counterexamples", inequality_id="nohitting-hit-scaling",
            instance=f"n={m} V1->V{km}", lhs=est.lower, rhs=est.lower,
            tolerance=0.0, provenance="DERIVED", n=m,
            schedule_hash=schedule.schedule_hash(sm), status="scaling",
            extra={"residual": est.residual_mass, "status": est.status}))
    ms = sorted(hits)
    for lo, hi in zip(ms, ms[1:]):
        out.append(BoundReport(
            suite="counterexamples", inequality_id="nohitting-hit-growth",
            instance=f"t_hit({hi})/t_hit({lo})", lhs=2.0, rhs=hits[hi] / hits[lo],
            tolerance=0.0, provenance="DERIVED", n=hi))

    # window-average ergodicity, base and doubled
    d = constructions.build_nohitting_doubled(n)
    dh = schedule.schedule_hash(d)
    nonergodic = [t1 for t1 in range(3 * n + 2)
                  if not schedule.window_ergodic(d, t1, 3 * n)]
    out.append(BoundReport(
        suite="counterexamples", inequality_id="nohitting-doubled-nonergodic-3n",
        instance=f"width {3 * n}: non-ergodic window exists",
        lhs=1.0, rhs=float(len(nonergodic)), tolerance=0.0,
        provenance="PAPER", n=2 * n, schedule_hash=dh,
        extra={"starts": nonergodic[:4]}))
    span = math.lcm(3 * n, 3 * n + 2)
    for label, sched, hh, width in (
        ("base", s, h, 3 * n + 2), ("base", s, h, 4 * n),
        ("doubled", d, dh, 3 * n + 2), ("doubled", d, dh, 4 * n),
    ):
        starts = range(3 * n if label == "base" else span)
        bad = sum(not schedule.window_ergodic(sched, t1, width) for t1 in starts)
        out.append(BoundReport(
            suite="counterexamples", inequality_id=f"nohitting-{label}-ergodic-{width}",
            instance=f"{label} width {width}, all starts", lhs=float(bad), rhs=0.0,
            tolerance=0.0, provenance="PAPER", n=sched.n, schedule_hash=hh))
    return out


# ---------------------------------------------------------------------------
# criterion 9: Prop-nomixing mass pile-up
# ---------------------------------------------------------------------------

def suite_nomixing(*, sizes=(1000,), seeds=(7,)) -> list[BoundReport]:
    """One schedule per (size, seed), run for 3 ceil(log10 n) steps."""
    out = []
    for n, seed in itertools.product(sizes, seeds):
        t = 3 * math.ceil(math.log10(n))
        s = constructions.build_nomixing(n, t, seed=seed)
        h = schedule.schedule_hash(s)
        set_sizes = s.meta["set_sizes"]
        start = s.meta["active_start"]
        active = s.meta["active_steps"]
        trace = walks.evolve_trace(s, np.full(n, 1.0 / n), t)
        for i in range(1, active + 1):
            need = (10.0 / 8.0) ** i / n
            got = float(trace[start + i][:set_sizes[i]].min())
            out.append(BoundReport(
                suite="nomixing", inequality_id="nomixing-growth",
                instance=f"active step {i}, |S_i|={set_sizes[i]}", lhs=need, rhs=got,
                tolerance=1e-15, provenance="PAPER", n=n, schedule_hash=h))
        p_max = float(trace[t].max())
        c = math.log(p_max * n) / math.log(n)
        out.append(BoundReport(
            suite="nomixing", inequality_id="nomixing-final-mass",
            instance=f"max_u p^({t})(u) vs 1/n", lhs=1.0 / n, rhs=p_max,
            tolerance=0.0, provenance="PAPER", n=n, schedule_hash=h,
            extra={"measured_c": c}))
        max_deg = max(int(s.step(tt).degree.max()) for tt in range(1, t + 1))
        out.append(BoundReport(
            suite="nomixing", inequality_id="nomixing-degree",
            instance=f"max degree over {t} steps", lhs=float(max_deg), rhs=9.0,
            tolerance=0.0, provenance="TRIVIAL", n=n, schedule_hash=h))
        bad = sum(not graphs.is_connected(s.step(tt)) for tt in range(1, t + 1))
        out.append(BoundReport(
            suite="nomixing", inequality_id="nomixing-connected",
            instance="disconnected steps", lhs=float(bad), rhs=0.0,
            tolerance=0.0, provenance="TRIVIAL", n=n, schedule_hash=h))
    return out


# ---------------------------------------------------------------------------
# criterion 10: commute sandwich and path tightness
# ---------------------------------------------------------------------------

def suite_commute_bounds(*, seeds=range(200), sizes=range(3, 13)) -> list[BoundReport]:
    out = []
    for seed in seeds:
        n = 4 + (seed % 7)
        p = 0.45 + 0.1 * (seed % 3)
        g = graphs.gnp_connected_graph(n, p, [60, seed])
        commute_times = commute.commute_matrix(g)
        upper = np.array([commute.cut_sums_from(g, s) for s in range(n)])
        lower = np.array([commute.nash_williams_from(g, s) for s in range(n)])
        pairs = ~np.eye(n, dtype=bool)
        worst_upper = float(np.max((commute_times - upper)[pairs]))
        worst_lower = float(np.max((lower - commute_times)[pairs]))
        out.append(BoundReport(
            suite="commute-bounds", inequality_id="cutsum-upper",
            instance=f"gnp n={n} p={p:.2f}, exhaustive ordered pairs", lhs=worst_upper,
            rhs=0.0, tolerance=EXACT_TOL, provenance="DERIVED", n=n, seed=seed))
        out.append(BoundReport(
            suite="commute-bounds", inequality_id="nw-lower",
            instance=f"gnp n={n} p={p:.2f}, exhaustive ordered pairs", lhs=worst_lower,
            rhs=0.0, tolerance=EXACT_TOL, provenance="DERIVED", n=n, seed=seed))
    for n in sizes:
        g = graphs.path_graph(n)
        expected = 4.0 * (n - 1) ** 2
        exact = commute.exact_commute(g, 0, n - 1)
        _, bounds = commute.cut_sum_upper(g, 0, n - 1)
        out.append(BoundReport(
            suite="commute-bounds", inequality_id="path-tightness-exact",
            instance=f"path n={n} ends", lhs=abs(exact - expected), rhs=0.0,
            tolerance=EXACT_TOL, provenance="DERIVED", n=n))
        out.append(BoundReport(
            suite="commute-bounds", inequality_id="path-tightness-cutsum",
            instance=f"path n={n} ends", lhs=abs(bounds.flow - expected), rhs=0.0,
            tolerance=EXACT_TOL, provenance="DERIVED", n=n))
    return out


# ---------------------------------------------------------------------------
# criterion 11: monotone connected-prefix labellings
# ---------------------------------------------------------------------------

def suite_connected_labelling() -> list[BoundReport]:
    out = []
    graphs_list = canonical_small_graphs()
    for name, g in graphs_list:
        missing = 0
        invalid = 0
        pairs = 0
        greedy_hits = 0
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                pairs += 1
                volt = commute.solve_voltage(g, s, t)
                lab = commute.connected_labelling(g, volt)
                if lab.order is None:
                    missing += 1
                    continue
                if lab.status == "found-greedy":
                    greedy_hits += 1
                mono = np.all(np.diff(volt.values[lab.order]) >= -1e-9)
                ends = lab.order[0] == s and abs(volt.values[lab.order[-1]] - 1.0) <= 1e-9
                if not (mono and ends and commute.prefixes_connected(g, lab.order)):
                    invalid += 1
        out.append(BoundReport(
            suite="connected-labelling", inequality_id="connected-labelling-exists",
            instance=f"{name}: {pairs} ordered pairs", lhs=float(missing + invalid),
            rhs=0.0, tolerance=0.0, provenance="PAPER", n=g.n,
            extra={"greedy_rate": round(greedy_hits / pairs, 4) if pairs else 1.0}))
    return out


# ---------------------------------------------------------------------------
# criterion 12: averaged Cheeger comparison (eq-interesting)
# ---------------------------------------------------------------------------

def suite_eq_interesting(*, sizes=(8, 12)) -> list[BoundReport]:
    out = []
    cases = [("complete-prism", graphs.complete_prism_graph(m), "PAPER")
             for m in sizes]
    cases.append(("complete-4", graphs.complete_graph(4), "DERIVED"))
    cases.append(("complete-12", graphs.complete_graph(12), "DERIVED"))
    for name, g, prov in cases:
        es = commute.eigen_sum(g)
        pb = commute.profile_bound(g)
        out.append(BoundReport(
            suite="eq-interesting", inequality_id="eq-interesting",
            instance=f"{name} n={g.n}", lhs=es, rhs=pb, tolerance=EXACT_TOL,
            provenance=prov, n=g.n,
            extra={"eigen_sum": es, "profile_bound": pb}))
    return out


# ---------------------------------------------------------------------------
# criterion 13: circulant tightness of the connectivity bound
# ---------------------------------------------------------------------------

CONNECTIVITY_RATIO_C = 4.0  # pinned from the oracle run: max measured 3.27 at rho=4


def suite_circulant(*, sizes=(32, 64, 128)) -> list[BoundReport]:
    out = []
    for rho in (2, 4):
        ratios = {}
        for n in sizes:
            g = graphs.circulant_graph(n, rho)
            mc = commute.max_commute(g)
            cb = commute.connectivity_bound(g)
            ratios[n] = mc / (n * n / rho)
            out.append(BoundReport(
                suite="circulant-connectivity", inequality_id="optimalconn-scaling",
                instance=f"rho={rho} n={n}", lhs=mc, rhs=mc, tolerance=0.0,
                provenance="DERIVED", n=n, status="scaling",
                extra={"normalized": ratios[n], "connectivity_bound": cb}))
            out.append(BoundReport(
                suite="circulant-connectivity", inequality_id="connectivity-bound-ratio",
                instance=f"rho={rho} n={n}", lhs=cb / mc,
                rhs=CONNECTIVITY_RATIO_C * math.log2(rho), tolerance=0.0,
                provenance="DERIVED", n=n))
        band = max(ratios.values()) / min(ratios.values())
        out.append(BoundReport(
            suite="circulant-connectivity", inequality_id="optimalconn-band",
            instance=f"rho={rho} maxC/(n^2/rho) across n={list(sizes)}", lhs=band,
            rhs=4.0, tolerance=0.0, provenance="PAPER", n=max(sizes)))
    return out


# ---------------------------------------------------------------------------
# criterion 14: cover/hit gap on complete-then-cycle
# ---------------------------------------------------------------------------

def suite_cover_hit(*, sizes=(128,), trials=200) -> list[BoundReport]:
    out = []
    for n in sizes:
        s = constructions.build_complete_then_cycle(n)
        h = schedule.schedule_hash(s)
        hit = walks.monte_carlo(s, 0, seed=1401, trials=trials, stop=("hit", n // 2),
                                horizon=400_000)
        cov = walks.monte_carlo(s, 0, seed=1402, trials=trials, stop=("cover",),
                                horizon=400_000)
        out += [
            BoundReport(
                suite="cover-hit-gap", inequality_id="coverhit-ratio",
                instance=f"n={n} trials={trials}", lhs=n / 10.0,
                rhs=cov.mean / hit.mean, tolerance=0.0, provenance="DERIVED",
                n=n, seed=1401, schedule_hash=h,
                extra={"hit_mean": hit.mean, "hit_stderr": hit.stderr,
                       "cover_mean": cov.mean, "cover_stderr": cov.stderr}),
            BoundReport(
                suite="cover-hit-gap", inequality_id="coverhit-censored",
                instance=f"n={n} trials={trials}",
                lhs=float(hit.n_censored + cov.n_censored), rhs=0.0, tolerance=0.0,
                provenance="TRIVIAL", n=n, seed=1402, schedule_hash=h),
        ]
    return out


SUITES = {
    "eq-mihai": suite_eq_mihai,
    "lemma-imp": suite_lemma_imp,
    "thm-average": suite_thm_average,
    "lemma-inftoell2": suite_midpoint,
    "cheeger-ballsize": suite_cheeger_ballsize,
    "worst-case": suite_worst_case,
    "torus-scaling": suite_torus,
    "counterexamples": suite_counterexamples,
    "nomixing": suite_nomixing,
    "commute-bounds": suite_commute_bounds,
    "connected-labelling": suite_connected_labelling,
    "eq-interesting": suite_eq_interesting,
    "circulant-connectivity": suite_circulant,
    "cover-hit-gap": suite_cover_hit,
}

# `verify <inequality-id>` entry points map onto the suites that check them.
INEQUALITY_TO_SUITE = {
    "eq-mihai": "eq-mihai",
    "lemma-imp": "lemma-imp",
    "thm-average": "thm-average",
    "lemma-inftoell2": "lemma-inftoell2",
    "cheeger": "cheeger-ballsize",
    "ballsize": "cheeger-ballsize",
    "cutsum-sandwich": "commute-bounds",
    "eq-interesting": "eq-interesting",
}

def readers(registry: dict, knob: str) -> tuple[str, ...]:
    """The names in ``registry`` whose function's signature names ``knob``,
    in registry order: the suites that read a knob, and likewise the
    ``gen`` builders and ``commute`` graph families that read a flag."""
    return tuple(name for name, fn in registry.items()
                 if knob in inspect.signature(fn).parameters)


def check_config(cfg: ExperimentConfig) -> dict:
    """The knobs set in ``cfg``, as keyword arguments for its suite.  Raises
    GraphError on an unknown suite, on a set knob the suite does not read, and
    on a value that a check in the suite's signature rejects."""
    if cfg.suite not in SUITES:
        raise GraphError(f"unknown suite {cfg.suite!r}; known: {sorted(SUITES)}")
    params = inspect.signature(SUITES[cfg.suite], eval_str=True).parameters
    knobs = {k: getattr(cfg, k) for k in KNOBS if getattr(cfg, k) is not None}
    for knob, val in knobs.items():
        if knob not in params:
            raise GraphError(f"suite {cfg.suite}: {knob} is read only by "
                             f"{', '.join(readers(SUITES, knob))}")
        for check in getattr(params[knob].annotation, "__metadata__", ()):
            check(val)
    return knobs


def run_suite(cfg: ExperimentConfig, out_path=None):
    """Execute one suite, write its CSV, and return (reports, path, all_passed).

    The knobs set in ``cfg`` are passed to the suite; one it does not read is
    rejected before anything is written, as is a value its signature's
    checks reject (``check_config``).  A precondition failure inside the
    suite still produces a machine-readable error record at the output path
    before the exception propagates.
    """
    knobs = check_config(cfg)
    if out_path is None:
        out_dir = cfg.out or default_out_dir()
        out_path = f"{out_dir}/{cfg.suite}.csv"
    try:
        reports = SUITES[cfg.suite](**knobs)
    except Exception as err:
        record = BoundReport(
            suite=cfg.suite, inequality_id="suite-error", instance=repr(err),
            lhs=1.0, rhs=0.0, tolerance=0.0, provenance="TRIVIAL",
            status="error", extra={"type": type(err).__name__})
        write_report_csv(out_path, [record], config_doc=cfg.doc())
        raise
    write_report_csv(out_path, reports, config_doc=cfg.doc())
    return reports, out_path, all(r.passed for r in reports)
