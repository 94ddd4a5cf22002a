"""Exact and Monte Carlo random-walk computations on graph schedules.

Exact mode propagates distributions through the step matrices
(p^(t+1) = p^(t) P^(t+1)); hitting times use absorbing propagation and are
reported as certified lower bounds plus residual mass, never extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import chain
from .errors import GraphError, TruncationError
from .graphs import _member_mask
from .schedule import GraphSchedule, window_average

NEGATIVE_DUST = 1e-14
DECAY_TOL = 1e-10


@dataclass
class DistributionState:
    """The distribution p after t steps, and its ratio rho = p / pi if pi was given."""
    p: np.ndarray
    t: int
    rho: np.ndarray | None = None


@dataclass
class HittingEstimate:
    """A truncated hitting-time sum with its residual mass and status."""
    lower: float          # sum_{t<=T} Pr[tau > t], a certified lower bound
    residual_mass: float  # surviving probability at the truncation point
    T: int
    status: str           # "exact-to-tolerance" | "truncated"


@dataclass
class MonteCarloSummary:
    """The stop times of seeded trials, censored ones flagged, with their mean and stderr."""
    times: np.ndarray
    censored: np.ndarray
    mean: float
    stderr: float
    trials: int
    n_censored: int
    seed: int


def _point_or_dist(n: int, p0) -> np.ndarray:
    if np.isscalar(p0):
        v = int(p0)
        if not 0 <= v < n:
            raise GraphError("start vertex out of range")
        p = np.zeros(n)
        p[v] = 1.0
        return p
    p = np.asarray(p0, dtype=float).copy()
    if p.shape != (n,) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-10:
        raise GraphError("start must be a vertex or a probability distribution")
    return p


def _clamp(p: np.ndarray) -> np.ndarray:
    low = p.min()
    if low < -NEGATIVE_DUST:
        raise GraphError(f"propagation produced negative mass {low:.3e}")
    if low < 0:
        p = np.clip(p, 0.0, None)
        p /= p.sum()
    return p


def _step(s: GraphSchedule, t: int, X: np.ndarray) -> np.ndarray:
    """X after step t, P^(t)T X: X is one distribution or one per column.
    ``step_matrix`` serves P^T itself, dense or CSC as it chose."""
    return s.step_matrix(t) @ X


def _propagate(s: GraphSchedule, p: np.ndarray, steps) -> np.ndarray:
    """Distribution p after the steps t of ``steps``, applied in order."""
    for t in steps:
        p = _clamp(_step(s, t, p))
    return p


def evolve(s: GraphSchedule, p0, t: int, pi=None) -> DistributionState:
    """Exact distribution after t steps; exposes rho against pi when given."""
    if t < 0:
        raise GraphError("t must be >= 0")
    p = _propagate(s, _point_or_dist(s.n, p0), range(1, t + 1))
    rho = None if pi is None else chain.likelihood_ratio(p, chain._pi_array(pi))
    return DistributionState(p=p, t=t, rho=rho)


def evolve_trace(s: GraphSchedule, p0, steps: int) -> list[np.ndarray]:
    """All intermediate distributions p^(0) .. p^(steps)."""
    out = [_point_or_dist(s.n, p0)]
    for t in range(1, steps + 1):
        out.append(_propagate(s, out[-1], (t,)))
    return out


def measure_mixing(s: GraphSchedule, pi, threshold: float = 1.0 / 3.0,
                   horizon: int | None = None) -> int:
    """Smallest t with ||rho^[0,t]_{u,.} - 1||_{2,pi} <= threshold from every start.

    Propagates all n point starts at once: M^T, one column per start, takes
    one step per t.  Raises TruncationError carrying (horizon, worst norm)
    when the cap is reached.
    """
    pi = chain._pi_array(pi)
    n = s.n
    if horizon is None:
        horizon = 100 * n * n
    MT = np.eye(n)
    inv_pi = 1.0 / pi
    target = threshold * threshold
    worst = np.inf
    for t in range(1, horizon + 1):
        MT = _step(s, t, MT)
        var = inv_pi @ (MT * MT) - 1.0  # one product, not a strided column sum
        worst = float(var.max())
        if worst <= target:
            return t
    raise TruncationError(
        f"mixing not reached by t={horizon}; worst squared norm {worst:.3e}",
        t=horizon, value=worst)


def _target_mask(n: int, target) -> np.ndarray:
    """Mask of a target vertex or vertex set; raises on an empty or out-of-range one."""
    mask = _member_mask(n, target)
    if not mask.any():
        raise GraphError("empty target")
    return mask


def exact_hitting(s: GraphSchedule, source, target, t_max: int | None = None,
                  eps: float = 1e-9) -> HittingEstimate:
    """Expected time to reach the target (vertex or vertex set) from source.

    Absorbing propagation: lower = sum of survival probabilities, residual is
    the mass still unabsorbed at the stopping point.
    """
    return exact_hitting_batch(s, [(source, target)], t_max=t_max, eps=eps)[0]


def exact_hitting_batch(s: GraphSchedule, queries, t_max: int | None = None,
                        eps: float = 1e-9) -> list[HittingEstimate]:
    """Shared-pass absorbing propagation for several queries on one schedule."""
    n = s.n
    if t_max is None:
        t_max = 200 * n * n
    k = len(queries)
    if not k:
        raise GraphError("no hitting queries")
    X = np.zeros((n, k))
    absorbed = np.zeros((n, k), dtype=bool)  # column j: the target of query j
    for j, (source, target) in enumerate(queries):
        absorbed[:, j] = _target_mask(n, target)
        X[:, j] = _point_or_dist(n, source)
        if X[absorbed[:, j], j].sum() > 0:
            raise GraphError("source starts inside the target")
    lower = np.ones(k)  # Pr[tau > 0] = 1
    survival = np.ones(k)
    t = 0
    while t < t_max and survival.max() > eps:
        t += 1
        X = _step(s, t, X)
        X[absorbed] = 0.0
        survival = X.sum(axis=0)
        lower += survival
    out = []
    for j in range(k):
        status = "exact-to-tolerance" if survival[j] <= eps else "truncated"
        out.append(HittingEstimate(lower=float(lower[j]), residual_mass=float(survival[j]),
                                   T=t, status=status))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo trajectories
# ---------------------------------------------------------------------------

_BLOCK = 64     # a trial draws its coins for a block of steps, then its picks
_ALONE = 8      # at most this many live trials finish one at a time

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
INIT_A = 0x43b0d7e5
MULT_A = 0x931e8875
INIT_B = 0x8b51f9dd
MULT_B = 0x58f38ded
MIX_MULT_L = 0xca01f9dd
MIX_MULT_R = 0x4973f715
MASK32 = 0xFFFFFFFF


def _spawned_seed_words(seed: int, trials: int) -> np.ndarray:
    """Row j: ``SeedSequence(seed).spawn(trials)[j].generate_state(4, np.uint64)``,
    the PCG64 seed of trial j, for every j at once.

    Child j's entropy is the seed's 32-bit words, then j.  So its pool is the
    parent's ``SeedSequence(seed).pool`` with j hashed into each of its four
    words, by the hash constants that follow the ones the parent's pool used
    up: 4 to fill it, 12 to mix it, and 4 for each seed word past the fourth.
    The hash runs on uint32 arrays, which wrap the way numpy's uint32_t does;
    j must fit one word, so trials < 2**32.
    """
    pool = np.random.SeedSequence(seed).pool
    words = max(1, -(-seed.bit_length() // 32))
    hash_const = INIT_A * pow(MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & MASK32
    j = np.arange(trials, dtype=np.uint32)
    mixed = []
    for word in pool.tolist():  # mix(word, hashmix(j))
        h = j ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & MASK32
        h *= np.uint32(hash_const)
        h ^= h >> 16
        v = np.uint32(MIX_MULT_L * word & MASK32) - np.uint32(MIX_MULT_R) * h
        v ^= v >> 16
        mixed.append(v)
    hash_const = INIT_B
    state = []
    for i in range(8):  # generate_state: 8 uint32 words, cycling over the pool
        v = mixed[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & MASK32
        v *= np.uint32(hash_const)
        v ^= v >> 16
        state.append(v.astype(np.uint64))
    # uint32 pairs read as little-endian uint64s: the first word is the low half
    return np.stack([state[2 * k] | state[2 * k + 1] << 32 for k in range(4)], axis=1)


class _SeedWords(ISeedSequence):
    """One trial's seed sequence: PCG64 asks it for ``generate_state(4, np.uint64)``
    and gets the trial's precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    """``default_rng(SeedSequence(seed).spawn(trials)[j])`` for each trial j."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for w in _spawned_seed_words(seed, trials)]


def _walk_alone(s: GraphSchedule, x: int, rng: np.random.Generator, t: int, horizon: int,
                kind: str, target_mask, unseen) -> tuple[int, bool]:
    """One trial from time t on, one step at a time; returns (stop time, censored).

    ``rng`` stands at the first coin of the block of step t + 1;
    ``unseen`` marks the vertices a cover trial has yet to visit.
    """
    remaining = 0 if unseen is None else int(unseen.sum())
    while t < horizon:
        w = min(_BLOCK, horizon - t)
        draws = rng.random(2 * w)
        for coin, pick in zip(draws[:w].tolist(), draws[w:].tolist()):
            t += 1
            if coin >= 0.5:
                g = s.step(t)
                lo, hi = g.adj_indptr[x], g.adj_indptr[x + 1]
                if hi > lo:
                    x = int(g.adj_indices[lo + int(pick * (hi - lo))])
            if kind == "hit":
                if target_mask[x]:
                    return t, False
            elif unseen[x]:
                unseen[x] = False
                remaining -= 1
                if remaining == 0:
                    return t, False
    return horizon, True


def monte_carlo(s: GraphSchedule, start: int, seed: int, trials: int, stop,
                horizon: int = 1_000_000) -> MonteCarloSummary:
    """Seeded trajectory sampling; censored trials are flagged, never dropped.

    ``stop`` is ("hit", target) or ("cover",); ``seed`` is a
    non-negative int, ``1 <= trials < 2**32`` and ``horizon >= 1``.  The
    stream contract, which fixes every stop time:

    - trial j draws from its own generator,
      ``default_rng(SeedSequence(seed).spawn(trials)[j])``; the children's
      PCG64 seeds are hashed together, in one vectorized pass over j
      (``_spawned_seed_words``);
    - it draws one block per 64 steps, in one call: 64 coins (fewer in the
      last block before the horizon), then as many picks.  At step t it
      moves when its coin is >= 0.5, to neighbour ``floor(pick * deg)`` of
      its vertex in g_t; a vertex with no neighbours keeps the walk in place;
    - all live trials share g_t and move together, one vectorized step per t;
      a finished trial leaves the live set, and the last few live trials
      finish one at a time;
    - so a trial's result does not depend on how many others run, or on how.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise GraphError(f"seed must be a non-negative int; got {seed!r}")
    seed = int(seed)
    if not 1 <= trials < 2**32:
        raise GraphError(f"trials must be in [1, 2**32); got {trials}")
    if horizon < 1:
        raise GraphError(f"horizon must be >= 1; got {horizon}")
    kind = stop[0]
    if kind not in ("hit", "cover"):
        raise GraphError(f"unknown stop rule {kind!r}")
    n = s.n
    start = int(start)
    if not 0 <= start < n:
        raise GraphError("start vertex out of range")
    target_mask = _target_mask(n, stop[1]) if kind == "hit" else None
    times = np.zeros(trials, dtype=np.int64)
    censored = np.zeros(trials, dtype=bool)
    if not ((kind == "hit" and target_mask[start]) or (kind == "cover" and n == 1)):
        _lockstep(s, start, _trial_rngs(seed, trials), horizon, kind, target_mask,
                  times, censored)
    good = times[~censored]
    mean = float(good.mean()) if good.size else float("nan")
    stderr = float(good.std(ddof=1) / np.sqrt(good.size)) if good.size > 1 else float("nan")
    return MonteCarloSummary(times=times, censored=censored, mean=mean, stderr=stderr,
                             trials=trials, n_censored=int(censored.sum()), seed=seed)


def _lockstep(s: GraphSchedule, start: int, rngs: list, horizon: int, kind: str,
              target_mask, times: np.ndarray, censored: np.ndarray) -> None:
    """Move all trials from ``start`` together; fills ``times`` and ``censored``.

    Each block of up to _BLOCK steps draws, per live trial, its coins and
    then its picks in one ``rng.random`` call.  Trials that stop inside a
    block leave the live arrays at its end, so the last few live trials
    start alone on a block edge.
    """
    n = s.n
    ids = np.arange(len(rngs))  # live trials
    x = np.full(ids.size, start, dtype=np.int64)
    if kind == "cover":
        unseen = np.ones(ids.size * n, dtype=bool)  # row j: what trial j has not seen
        unseen[ids * n + start] = False
        remaining = np.full(ids.size, n - 1)
    draws = np.empty((ids.size, 2 * _BLOCK))  # one block of coins, then of picks
    t = 0
    while ids.size > _ALONE and t < horizon:
        w = min(_BLOCK, horizon - t)
        for k, j in enumerate(ids.tolist()):
            rngs[j].random(out=draws[k, :2 * w])
        moves = (draws[:ids.size, :w] >= 0.5).T.copy()  # moves[i]: who moves at step t + i + 1
        picked = draws[:ids.size, w:2 * w].T.copy()
        live = np.ones(ids.size, dtype=bool)
        row = ids * n  # where each live trial's row of ``unseen`` starts
        for i in range(w):
            t += 1
            movers = moves[i].nonzero()[0]
            if not movers.size:
                continue
            g = s.step(t)
            if not g.m:  # an edgeless step moves no one
                continue
            here = x[movers]
            deg = g.degree[here]
            # clip: an isolated vertex may point one past the last neighbour; it stays put
            there = g.adj_indices.take(
                g.adj_indptr[here] + (picked[i][movers] * deg).astype(np.int64), mode="clip")
            if np.count_nonzero(deg) < deg.size:
                there = np.where(deg > 0, there, here)
            x[movers] = there
            if kind == "hit":
                stopped = movers[target_mask[there].nonzero()[0]]
            else:
                cells = row[movers] + there
                fresh = unseen[cells].nonzero()[0]
                if not fresh.size:
                    continue
                unseen[cells[fresh]] = False
                fresh = movers[fresh]
                remaining[fresh] -= 1
                stopped = fresh[(remaining[fresh] == 0).nonzero()[0]]
            if stopped.size:
                times[ids[stopped]] = t
                live[stopped] = False
                moves[:, stopped] = False
        ids, x = ids[live], x[live]
        if kind == "cover":
            remaining = remaining[live]
    for j, xj in zip(ids.tolist(), x.tolist()):
        times[j], censored[j] = _walk_alone(s, xj, rngs[j], t, horizon, kind, target_mask,
                                            unseen[j * n:(j + 1) * n] if kind == "cover" else None)


# ---------------------------------------------------------------------------
# inequality verifiers
# ---------------------------------------------------------------------------

@dataclass
class DecayCheck:
    """One step of the variance-decay inequality, with its margin."""
    var_before: float
    var_after: float
    dirichlet: float
    margin: float
    ok: bool


def variance_decay_checks(s: GraphSchedule, p0, steps: int, pi) -> list[DecayCheck]:
    """Per-step check of Var rho^(t) - Var rho^(t+1) >= E_{P^(t+1)}(rho^(t))."""
    pi = chain._pi_array(pi)
    trace = evolve_trace(s, p0, steps)
    out = []
    var_prev = chain.variance_pi(trace[0] / pi, pi)
    for t in range(steps):
        rho = trace[t] / pi
        e = chain.dirichlet_form_edges(s.step(t + 1), rho, pi)
        var_next = chain.variance_pi(trace[t + 1] / pi, pi)
        margin = (var_prev - var_next) - e
        out.append(DecayCheck(var_before=var_prev, var_after=var_next, dirichlet=e,
                              margin=margin, ok=margin >= -DECAY_TOL))
        var_prev = var_next
    return out


@dataclass
class DeviationCheck:
    """The strongest pointwise-deviation instance at one step, with its margin."""
    u: int
    deviation: float
    var_drop: float
    bound: float
    margin: float
    ok: bool


def ratio_deviation_checks(s: GraphSchedule, p0, steps: int, pi) -> list[DeviationCheck]:
    """For each t, the strongest triggered instance of the pointwise-deviation
    bound: Var rho^(0) - Var rho^(t) >= 2 eps^2 pi(u) / t with
    eps = |rho^(t)(u) - rho^(0)(u)|."""
    pi = chain._pi_array(pi)
    trace = evolve_trace(s, p0, steps)
    rho0 = trace[0] / pi
    var0 = chain.variance_pi(rho0, pi)
    out = []
    for t in range(1, steps + 1):
        rho = trace[t] / pi
        dev = np.abs(rho - rho0)
        bounds = 2.0 * dev * dev * pi / t
        u = int(np.argmax(bounds))
        drop = var0 - chain.variance_pi(rho, pi)
        margin = drop - bounds[u]
        out.append(DeviationCheck(u=u, deviation=float(dev[u]), var_drop=drop,
                                  bound=float(bounds[u]), margin=margin,
                                  ok=margin >= -DECAY_TOL))
    return out


@dataclass
class WindowDecayCheck:
    """The variance drop over one window against the window's mean Dirichlet form."""
    var_drop: float
    dirichlet_avg: float
    bound: float
    gap: float
    var_start: float
    margin: float
    ok: bool


def window_average_decay_check(s: GraphSchedule, t1: int, w: int, p0, pi) -> WindowDecayCheck:
    """Var rho^(t1) - Var rho^(t1+w) >= E_{Pbar}(rho^(t1), rho^(t1)) / (15 w).

    E_Pbar is linear in P, so it is the mean of the window's per-step edge
    forms.  The chained lower bound through the spectral gap holds in its
    normalized form E_Pbar(rho, rho) >= gap * Var_pi(rho), the shape the
    variational definition of the gap actually guarantees; ``gap``,
    ``var_start`` and ``dirichlet_avg`` carry what it needs.
    """
    pi = chain._pi_array(pi)
    trace = evolve_trace(s, p0, t1 + w)
    rho_start = trace[t1] / pi
    var_start = chain.variance_pi(rho_start, pi)
    drop = var_start - chain.variance_pi(trace[t1 + w] / pi, pi)
    gap = window_average(s, t1, w, pi=pi).gap
    e_avg = sum(chain.dirichlet_form_edges(s.step(t), rho_start, pi)
                for t in range(t1 + 1, t1 + w + 1)) / w
    bound = e_avg / (15.0 * w)
    margin = drop - bound
    return WindowDecayCheck(var_drop=drop, dirichlet_avg=e_avg, bound=bound, gap=gap,
                            var_start=var_start, margin=margin, ok=margin >= -DECAY_TOL)


@dataclass
class MidpointCheck:
    """One check of |rho^[t1,t2]_{v,u} - 1| against its midpoint bound, with its margin."""
    lhs: float
    term_u: float
    term_v: float
    rhs: float
    margin: float
    ok: bool
    alt_rhs: float  # the alternative split convention, for comparison
    alt_ok: bool


def verify_midpoint_bound(s: GraphSchedule, u: int, v: int, t1: int, t2: int, pi) -> MidpointCheck:
    """|rho^[t1,t2]_{v,u} - 1| against the worse of the two half-window variances.

    Asserts the adjoint split at mid = floor((t1+t2)/2): the first
    half-window (t1+1..mid) is applied forward to the point likelihood at v,
    the second half-window (mid+1..t2) is applied in reverse order (step t2
    first) to the point likelihood at u; reversibility makes the reversed
    product the adjoint of the forward one, and Cauchy-Schwarz then gives the
    bound for this (or any) split point.  A second circulating convention,
    which splits one step earlier and anchors the v-side product at step 1,
    is evaluated alongside and reported, so disagreements between the two
    conventions stay visible.
    """
    if not t1 < t2:
        raise GraphError("need t1 < t2")
    pi = chain._pi_array(pi)
    e_u, e_v = _point_or_dist(s.n, u), _point_or_dist(s.n, v)
    mid = (t1 + t2) // 2

    def _variance(p):
        return chain.variance_pi(p / pi, pi)

    # the lhs continues the v side past mid to t2, and the alternative split
    # continues the u side through step mid
    p_v = _propagate(s, e_v, range(t1 + 1, mid + 1))
    p_u = _propagate(s, e_u, range(t2, mid, -1))
    p = _propagate(s, p_v, range(mid + 1, t2 + 1))
    lhs = abs(p[u] / pi[u] - 1.0)
    term_v, term_u = _variance(p_v), _variance(p_u)
    rhs = max(term_u, term_v)

    if mid >= 1:
        alt_u = _variance(_propagate(s, p_u, (mid,)))
        alt_v = _variance(_propagate(s, e_v, range(1, mid)))
        alt_rhs = max(alt_u, alt_v)
        alt_ok = alt_rhs - lhs >= -DECAY_TOL
    else:
        # the alternative convention would reference step 0; undefined here
        alt_rhs = float("nan")
        alt_ok = True

    margin = rhs - lhs
    return MidpointCheck(lhs=lhs, term_u=term_u, term_v=term_v, rhs=rhs, margin=margin,
                         ok=margin >= -DECAY_TOL, alt_rhs=alt_rhs, alt_ok=alt_ok)
