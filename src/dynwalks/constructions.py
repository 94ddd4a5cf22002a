"""Builders for the example and counterexample schedules.

Each builder returns a GraphSchedule carrying its declared stationary
distribution (when one exists) and enough metadata to reproduce the
construction from the schedule JSON alone.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .chain import degree_stationary
from .errors import GraphError
from .graphs import (
    StaticGraph,
    expander_gap_threshold,
    is_connected,
    complete_graph,
    cycle_graph,
    barbell_graph,
    circulant_graph,
    derived_rng,
    expander_graph,
    random_regular_graph,
    torus_graph,
)
from .schedule import GraphSchedule


# ---------------------------------------------------------------------------
# generator-backed step families
# ---------------------------------------------------------------------------

def _expander_matching_step(n, params, seed, t) -> StaticGraph:
    h = n // 2
    if t % 2 == 1:
        a = expander_graph(h, seed=_mix(seed, t, 0))
        b = expander_graph(h, seed=_mix(seed, t, 1))
        return StaticGraph(n, np.concatenate([a.edges, b.edges + h]))
    i = np.arange(h)
    return StaticGraph(n, np.column_stack([i, i + h]))


def _mix(seed, *key) -> int:
    # stable per-(seed, key) integer for nested generators that take int seeds
    return int(derived_rng(int(seed), *key).integers(0, 2**62))


def _check_regular_degree(n, d) -> None:
    """Degrees above 4 are rejected: the pairing model exhausts its retry
    budget for many seeds there (at n = 12, on step 1 of 196 of seeds 0..199
    with d = 6 and of 77 with d = 5)."""
    if not 1 <= d <= min(4, n - 1) or n * d % 2:
        raise GraphError(f"needs 1 <= d <= min(4, n - 1) and n*d even; got n={n}, d={d}")


def _random_regular_step(n, params, seed, t) -> StaticGraph:
    _check_regular_degree(n, params["d"])
    g = random_regular_graph(n, params["d"], derived_rng(int(seed), t))
    if params.get("connected"):
        attempt = 0
        while not is_connected(g):
            attempt += 1
            if attempt > 200:
                raise GraphError("no connected regular sample in 200 attempts")
            g = random_regular_graph(n, params["d"], derived_rng(int(seed), t, attempt))
    return g


def _torus_relabelled_step(n, params, seed, t) -> StaticGraph:
    base = _torus_base(tuple(params["dims"]))
    sigma = derived_rng(int(seed), t).permutation(n)
    return StaticGraph(n, sigma[base.edges])


@cache
def _torus_base(dims) -> StaticGraph:
    return torus_graph(dims)


def nested_set_sizes(n: int) -> list[int]:
    """|S_0| = n, |S_{i+1}| = ceil(|S_i|/10), while the 6-edge gadget stays
    feasible (|S_i - S_{i+1}| >= 6 |S_{i+1}| and the sets keep shrinking)."""
    sizes = [n]
    while True:
        nxt = math.ceil(sizes[-1] / 10)
        if nxt >= sizes[-1] or sizes[-1] - nxt < 6 * nxt or nxt < 1:
            break
        sizes.append(nxt)
    return sizes


def _nomixing_step(n, params, seed, t) -> StaticGraph:
    sizes = nested_set_sizes(n)
    active = min(int(params["t_total"]), len(sizes) - 1)
    pad = int(params["t_total"]) - active
    if t <= pad or t > pad + active:
        return expander_graph(n, seed=_mix(seed, t))
    i = t - pad  # active step i builds the gadget from S_i into S_{i-1} - S_i
    s_prev, s_cur = sizes[i - 1], sizes[i]
    src = np.repeat(np.arange(s_cur), 6)
    dst = s_cur + np.arange(6 * s_cur)
    gadget = np.column_stack([src, dst])
    if dst.max() >= s_prev:
        raise GraphError("gadget receivers exceed the enclosing set")
    exp = expander_graph(n, seed=_mix(seed, t), forbidden_edges=gadget)
    return StaticGraph(n, np.concatenate([gadget, exp.edges]))


@cache
def _nohitting_period(n: int) -> tuple[StaticGraph, ...]:
    """One 3n-step period: 6-step blocks per bucket pair, a 6-step rest block,
    then the whole forward phase mirrored.  Cached: every schedule on n
    vertices shares these graphs."""
    if n % 4 != 0 or n < 8:
        raise GraphError("needs n a multiple of 4, n >= 8")
    k = n // 4
    pairs_in_bucket = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    forward = []
    for i in range(k - 1):
        lo = 4 * i
        hi = 4 * (i + 1)
        for a, b in pairs_in_bucket:
            left = [lo + a, lo + b]
            edges = [(x, hi + y) for x in left for y in range(4)]
            forward.append(StaticGraph(n, edges))
    rest = StaticGraph(n, np.empty((0, 2), np.int64))
    forward.extend([rest] * 6)
    return tuple(forward + forward[::-1])


def nohitting_pi(n: int) -> np.ndarray:
    """pi(u) = 2^(-i-2) on bucket V_i, renormalized by 1/(1 - 2^(-n/4))."""
    k = n // 4
    pi = np.repeat([2.0 ** (-(i + 2)) for i in range(1, k + 1)], 4)
    return pi / (1.0 - 2.0 ** (-k))


def _nohitting_doubled_step(n2, params, seed, t) -> StaticGraph:
    n = n2 // 2
    period = _nohitting_period(n)
    interval = 3 * n + 2  # one matching step after every 3n+1 base steps
    if t % interval == 0:
        k = n // 4
        u = np.arange(4 * (k - 1), 4 * k)
        return StaticGraph(n2, np.column_stack([u, u + n]))
    b = t - t // interval  # base step index, 1-based
    g = period[(b - 1) % len(period)]
    return StaticGraph(n2, np.concatenate([g.edges, g.edges + n]) if g.m
                       else np.empty((0, 2), np.int64))


GENERATOR_FAMILIES = {
    "expander_matching": _expander_matching_step,
    "random_regular_sequence": _random_regular_step,
    "torus_relabelled": _torus_relabelled_step,
    "nomixing": _nomixing_step,
    "nohitting_doubled": _nohitting_doubled_step,
}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_expander_matching(n: int, seed: int = 0) -> GraphSchedule:
    """Odd steps: two disjoint 3-regular expanders on the halves (fresh per
    step from derived seeds); even steps: the half-to-half perfect matching.
    All steps are regular graphs, so the uniform distribution is stationary."""
    if n % 4 != 0 or n < 8:
        raise GraphError("needs n divisible by 4 (3-regular halves), n >= 8")
    return GraphSchedule(
        n,
        generator={"family": "expander_matching", "params": {}, "seed": int(seed)},
        pi=np.full(n, 1.0 / n),
        name=f"expander-matching-n{n}",
        meta={"expander_gap_min": expander_gap_threshold(n // 2), "structure_period": 2},
    )


def build_random_regular_schedule(n: int, d: int = 4, seed: int = 0,
                                  connected: bool = False) -> GraphSchedule:
    """A fresh random d-regular graph every step; uniform pi.

    ``connected=True`` resamples any disconnected step (first draw unchanged,
    so seeds keep their realizations whenever the first draw already connects).
    d must be in 1..4 (see ``_check_regular_degree``).
    """
    _check_regular_degree(n, d)
    params = {"d": int(d)}
    if connected:
        params["connected"] = True
    return GraphSchedule(
        n,
        generator={"family": "random_regular_sequence", "params": params,
                   "seed": int(seed)},
        pi=np.full(n, 1.0 / n),
        name=f"random-{d}-regular-n{n}",
    )


def build_complete_then_cycle(n: int, c: float = 2.0) -> GraphSchedule:
    """Complete graph for ceil(c n ln n) steps, then a fixed cycle forever."""
    if n < 3 or c <= 0:
        raise GraphError("needs n >= 3 and c > 0")
    T = math.ceil(c * n * math.log(n))
    return GraphSchedule(
        n,
        prefix_runs=[(complete_graph(n), T)],
        cycle_runs=[(cycle_graph(n), 1)],
        pi=np.full(n, 1.0 / n),
        name=f"complete-then-cycle-n{n}",
        meta={"complete_phase": T, "c": c},
    )


def build_nomixing(n: int, t: int, seed: int = 0) -> GraphSchedule:
    """Bounded-degree connected expander sequence whose t-step probabilities
    pile up mass on nested sets.  Deliberately violates the common-pi
    assumption; exempt from stationarity validation."""
    sizes = nested_set_sizes(n)
    if len(sizes) < 2:
        raise GraphError("n too small for even one nested set")
    active = min(t, len(sizes) - 1)
    return GraphSchedule(
        n,
        generator={"family": "nomixing", "params": {"t_total": int(t)}, "seed": int(seed)},
        pi=None,
        name=f"nomixing-n{n}-t{t}",
        meta={
            "common_pi_exempt": True,
            "set_sizes": sizes,
            "active_steps": active,
            "active_start": int(t) - active,  # active step i is schedule step start+i
            "expander_gap_min": expander_gap_threshold(n),
        },
    )


def build_nohitting(n: int) -> GraphSchedule:
    """Bucketed bipartite schedule with the geometric stationary distribution;
    period 3n (forward pair blocks, a rest block, then the mirror image)."""
    period = _nohitting_period(n)
    return GraphSchedule(
        n,
        cycle_runs=[(g, 1) for g in period],
        pi=nohitting_pi(n),
        name=f"nohitting-n{n}",
        meta={"buckets": n // 4, "period": 3 * n},
    )


def build_nohitting_doubled(n: int) -> GraphSchedule:
    """Two disjoint copies plus a V_k <-> V'_k matching step after every 3n+1
    combined steps (so consecutive matchings are 3n+2 apart)."""
    base_pi = nohitting_pi(n)
    pi = np.concatenate([base_pi, base_pi]) / 2.0
    return GraphSchedule(
        2 * n,
        # the steps draw nothing at random; seed 0 keeps the pinned schedule hashes
        generator={"family": "nohitting_doubled", "params": {}, "seed": 0},
        pi=pi,
        name=f"nohitting-doubled-n{n}",
        meta={"base_n": n, "base_period": 3 * n, "matching_interval": 3 * n + 2},
    )


def build_torus_schedule(dim: int, side: int, seed: int = 0) -> GraphSchedule:
    """Per-step uniformly random relabelings of one torus.

    Axis-wise cyclic shifts are torus automorphisms (they reproduce the same
    labeled graph), so a uniform relabeling is used instead: every step is an
    isomorphic copy of the torus (regular, connected, uniform pi, identical
    isoperimetric profile) and the labeled sequence genuinely changes.
    """
    if dim not in (2, 3):
        raise GraphError("dim must be 2 or 3")
    if side < 3:
        raise GraphError("side must be >= 3")
    n = side ** dim
    return GraphSchedule(
        n,
        generator={"family": "torus_relabelled", "params": {"dims": [side] * dim},
                   "seed": int(seed)},
        pi=np.full(n, 1.0 / n),
        name=f"torus-{dim}d-side{side}",
        meta={"relabeling": "uniform-permutation"},
    )


def build_static(g: StaticGraph, pi=None, name: str = "static") -> GraphSchedule:
    """The same graph at every step."""
    return GraphSchedule(g.n, cycle_runs=[(g, 1)], pi=pi, name=name)


def build_circulant(n: int, rho: int) -> GraphSchedule:
    """The static circulant C_n(1..rho); uniform pi."""
    return build_static(circulant_graph(n, rho), pi=np.full(n, 1.0 / n),
                        name=f"circulant-n{n}-rho{rho}")


def build_barbell(n: int) -> GraphSchedule:
    """The static barbell graph; degree-proportional pi."""
    g = barbell_graph(n)
    return build_static(g, pi=degree_stationary(g).pi, name=f"barbell-n{n}")


# `dynwalks gen <name>`: each builder's signature declares the flags it reads
BUILDERS = {
    "expander_matching": build_expander_matching,
    "random_regular": build_random_regular_schedule,
    "complete_then_cycle": build_complete_then_cycle,
    "nomixing": build_nomixing,
    "nohitting": build_nohitting,
    "nohitting_doubled": build_nohitting_doubled,
    "torus_schedule": build_torus_schedule,
    "circulant": build_circulant,
    "barbell": build_barbell,
}
