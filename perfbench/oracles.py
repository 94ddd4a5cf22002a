"""Reference computations and checks for the benchmark's operations.

Nothing here imports dynwalks.  Every check recomputes what it compares from
raw edge arrays with numpy, or tests a property the method must have, so a
faulty program cannot vouch for itself.  A failed check raises CheckError.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

REL_TOL = 1e-9
DECAY_TOL = 1e-10
MC_SIGMAS = 4.0


class CheckError(AssertionError):
    """An output disagrees with the reference computation."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a, b, rel: float = REL_TOL, floor: float = 1e-12) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= floor + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# graphs and step matrices
# ---------------------------------------------------------------------------

def as_edges(edges) -> np.ndarray:
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def degrees(n: int, edges) -> np.ndarray:
    return np.bincount(as_edges(edges).ravel(), minlength=n)


def connected(n: int, edges) -> bool:
    return bool(np.all(np.isfinite(bfs(adjacency(n, edges), 0))))


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in as_edges(edges).tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, source: int) -> np.ndarray:
    dist = np.full(len(adj), np.inf)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == np.inf:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def check_simple(n: int, edges, label: str) -> np.ndarray:
    e = as_edges(edges)
    expect(e.size == 0 or (e.min() >= 0 and e.max() < n), f"{label}: endpoint out of range")
    expect(bool(np.all(e[:, 0] != e[:, 1])), f"{label}: self-loop")
    pairs = set(zip(np.minimum(e[:, 0], e[:, 1]).tolist(), np.maximum(e[:, 0], e[:, 1]).tolist()))
    expect(len(pairs) == len(e), f"{label}: repeated edge")
    return e


def check_regular_steps(n: int, d: int, steps, need_connected: bool = False) -> None:
    """Every step is a simple d-regular graph on n vertices (and connected if asked)."""
    for t, edges in enumerate(steps, start=1):
        e = check_simple(n, edges, f"step {t}")
        expect(len(e) == n * d // 2, f"step {t}: {len(e)} edges, want {n * d // 2}")
        expect(bool(np.all(degrees(n, e) == d)), f"step {t}: not {d}-regular")
        if need_connected:
            expect(connected(n, e), f"step {t}: disconnected")


def lazy_matrix(n: int, edges) -> np.ndarray:
    """Lazy walk matrix: 1/2 on the diagonal, 1/(2 d_u) to each neighbour."""
    e = as_edges(edges)
    deg = degrees(n, e).astype(float)
    P = np.zeros((n, n))
    np.add.at(P, (e[:, 0], e[:, 1]), 0.5 / deg[e[:, 0]])
    np.add.at(P, (e[:, 1], e[:, 0]), 0.5 / deg[e[:, 1]])
    P[np.diag_indices(n)] += np.where(deg > 0, 0.5, 1.0)
    return P


def point(n: int, v: int) -> np.ndarray:
    p = np.zeros(n)
    p[v] = 1.0
    return p


def variance(p: np.ndarray, pi: np.ndarray) -> float:
    """Var_pi of the likelihood ratio p/pi."""
    return float(np.sum(p * p / pi) - 1.0)


# ---------------------------------------------------------------------------
# propagation: hitting, mixing, evolution
# ---------------------------------------------------------------------------

def absorbing(matrices, starts: np.ndarray, masks: list[np.ndarray], T: int):
    """Absorbing propagation of start rows for T steps.

    Returns (sum_{t<=T} Pr[tau > t], Pr[tau > T]) per start row."""
    X = np.array(starts, dtype=float)
    lower = np.ones(len(X))
    for t in range(1, T + 1):
        X = X @ matrices(t)
        for j, mask in enumerate(masks):
            X[j, mask] = 0.0
        lower += X.sum(axis=1)
    return lower, X.sum(axis=1)


def check_hitting(n: int, matrices, queries, result, eps: float, t_max: int) -> None:
    """Reproduce every estimate's lower bound, residual mass and status."""
    T = result[0]["T"]
    starts = [point(n, s) for s, _ in queries]
    masks = [target_mask(n, t) for _, t in queries]
    lower, residual = absorbing(matrices, starts, masks, T)
    for j, est in enumerate(result):
        expect(est["T"] == T, "estimates disagree on T")
        expect(close(est["lower"], lower[j]), f"query {j}: lower {est['lower']!r} != {lower[j]!r}")
        expect(close(est["residual_mass"], residual[j], floor=1e-13),
               f"query {j}: residual {est['residual_mass']!r} != {residual[j]!r}")
        want = "exact-to-tolerance" if est["residual_mass"] <= eps else "truncated"
        expect(est["status"] == want, f"query {j}: status {est['status']!r}, want {want!r}")
    expect(residual.max() <= eps or T == t_max,
           "propagation stopped before every query converged")


def target_mask(n: int, target) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.atleast_1d(np.asarray(sorted(target) if isinstance(target, (set, frozenset))
                                  else target, dtype=np.int64))] = True
    return mask


def hitting_times(P: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Expected hitting times of the target set from every vertex (static chain)."""
    n = len(P)
    free = ~mask
    A = np.eye(int(free.sum())) - P[np.ix_(free, free)]
    h = np.zeros(n)
    h[free] = np.linalg.solve(A, np.ones(int(free.sum())))
    return h


def check_static_hitting(P: np.ndarray, queries, result) -> None:
    """H - lower <= residual * max_v H_v, and lower <= H, with H from a solve."""
    n = len(P)
    for j, ((s, t), est) in enumerate(zip(queries, result)):
        H = hitting_times(P, target_mask(n, t))
        slack = REL_TOL * H[s] + 1e-9
        expect(est["lower"] <= H[s] + slack, f"query {j}: lower {est['lower']} > H {H[s]}")
        expect(H[s] - est["lower"] <= est["residual_mass"] * H.max() + slack,
               f"query {j}: H - lower = {H[s] - est['lower']} exceeds residual * max H")


def spectral_profile(P: np.ndarray, pi: np.ndarray):
    """Worst point-start variance after t steps, from one eigendecomposition.

    For a chain reversible under pi, sum_v P^t(u,v)^2 / pi(v) equals
    sum_k lambda_k^(2t) V(u,k)^2 / pi(u) for the pi-symmetrized matrix."""
    flow = pi[:, None] * P
    expect(np.abs(flow - flow.T).max() <= 1e-12, "chain is not reversible under pi")
    root = np.sqrt(pi)
    S = root[:, None] * P / root[None, :]
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    W = V * V / pi[:, None]
    return lambda t: float((W @ (w ** (2 * t))).max() - 1.0)


def check_threshold_crossing(worst, t: int, threshold: float) -> None:
    """The worst variance is <= threshold^2 at t and above it at t - 1."""
    target = threshold * threshold
    expect(worst(t) <= target * (1 + 1e-9), f"mixing at t={t}: variance {worst(t)!r} above target")
    if t > 1:
        expect(worst(t - 1) > target * (1 - 1e-9), f"mixing already reached at t={t - 1}")


def product_profile(n: int, matrices, pi: np.ndarray, T: int) -> list[float]:
    """Worst point-start variance after each of t = 0..T steps, by explicit products."""
    M = np.eye(n)
    out = [float((M * M / pi[None, :]).sum(axis=1).max() - 1.0)]
    for t in range(1, T + 1):
        M = M @ matrices(t)
        out.append(float((M * M / pi[None, :]).sum(axis=1).max() - 1.0))
    return out


def trace(n: int, matrices, start: int, T: int) -> list[np.ndarray]:
    p = point(n, start)
    out = [p]
    for t in range(1, T + 1):
        p = p @ matrices(t)
        out.append(p)
    return out


def check_distributions(got, want, label: str) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    expect(got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}")
    expect(np.allclose(got, want, rtol=REL_TOL, atol=1e-13), f"{label}: distributions differ")
    expect(bool(np.all(np.abs(got.sum(axis=-1) - 1.0) <= 1e-9)), f"{label}: mass not conserved")


# ---------------------------------------------------------------------------
# the paper's inequality verifiers
# ---------------------------------------------------------------------------

def edge_dirichlet(n: int, edges, f: np.ndarray, pi: np.ndarray) -> float:
    e = as_edges(edges)
    deg = degrees(n, e)
    u, v = e[:, 0], e[:, 1]
    return float(np.sum(pi[u] * 0.5 / deg[u] * (f[u] - f[v]) ** 2))


def check_decay(n: int, steps, start: int, pi: np.ndarray, checks) -> None:
    """eq-mihai: Var rho^(t) - Var rho^(t+1) >= E_{P^(t+1)}(rho^(t)) at every step."""
    ps = trace(n, lambda t: lazy_matrix(n, steps[t - 1]), start, len(steps))
    expect(len(checks) == len(steps), "one check per step expected")
    for t, c in enumerate(checks):
        before, after = variance(ps[t], pi), variance(ps[t + 1], pi)
        e = edge_dirichlet(n, steps[t], ps[t] / pi, pi)
        expect(close(c["var_before"], before) and close(c["var_after"], after),
               f"step {t}: variances differ")
        expect(close(c["dirichlet"], e), f"step {t}: Dirichlet form {c['dirichlet']!r} != {e!r}")
        expect((before - after) - e >= -DECAY_TOL and c["ok"], f"step {t}: decay bound violated")


def check_deviation(n: int, steps, start: int, pi: np.ndarray, checks) -> None:
    """lemma-imp: Var rho^(0) - Var rho^(t) >= 2 eps^2 pi(u) / t for the strongest u."""
    ps = trace(n, lambda t: lazy_matrix(n, steps[t - 1]), start, len(steps))
    rho0 = ps[0] / pi
    var0 = variance(ps[0], pi)
    expect(len(checks) == len(steps), "one check per step expected")
    for t, c in enumerate(checks, start=1):
        dev = np.abs(ps[t] / pi - rho0)
        bound = float((2.0 * dev * dev * pi / t).max())
        drop = var0 - variance(ps[t], pi)
        expect(close(c["bound"], bound) and close(c["var_drop"], drop), f"t={t}: values differ")
        expect(drop - bound >= -DECAY_TOL and c["ok"], f"t={t}: deviation bound violated")


def check_midpoint(n: int, steps, pi: np.ndarray, u: int, v: int, t1: int, t2: int, chk) -> None:
    """lemma-inftoell2 with the adjoint split at floor((t1 + t2) / 2)."""
    mat = lambda t: lazy_matrix(n, steps[t - 1])  # noqa: E731

    def run(p, ts):
        for t in ts:
            p = p @ mat(t)
        return p

    mid = (t1 + t2) // 2
    lhs = abs(run(point(n, v), range(t1 + 1, t2 + 1))[u] / pi[u] - 1.0)
    term_v = variance(run(point(n, v), range(t1 + 1, mid + 1)), pi)
    term_u = variance(run(point(n, u), range(t2, mid, -1)), pi)
    expect(close(chk["lhs"], lhs), f"lhs {chk['lhs']!r} != {lhs!r}")
    expect(close(chk["term_u"], term_u) and close(chk["term_v"], term_v), "half-window terms differ")
    expect(max(term_u, term_v) - lhs >= -DECAY_TOL and chk["ok"], "midpoint bound violated")


# ---------------------------------------------------------------------------
# commute times
# ---------------------------------------------------------------------------

def commute_times(n: int, edges) -> np.ndarray:
    """Lazy-walk commute times C_uv = 4 m R_eff(u, v) from the Laplacian pseudo-inverse."""
    e = as_edges(edges)
    L = np.zeros((n, n))
    np.add.at(L, (e[:, 0], e[:, 1]), -1.0)
    np.add.at(L, (e[:, 1], e[:, 0]), -1.0)
    L[np.diag_indices(n)] = degrees(n, e)
    Lp = np.linalg.pinv(L, hermitian=True)
    d = np.diag(Lp)
    return 4.0 * len(e) * (d[:, None] + d[None, :] - 2.0 * Lp)


def nash_williams(n: int, edges, s: int, t: int) -> float:
    """Nash-Williams lower bound over BFS distance-layer cutsets from s."""
    e = as_edges(edges)
    dist = bfs(adjacency(n, e), s)
    a, b = np.minimum(dist[e[:, 0]], dist[e[:, 1]]), np.maximum(dist[e[:, 0]], dist[e[:, 1]])
    layer = b[(b == a + 1) & (b <= dist[t])]
    sizes = np.bincount(layer.astype(np.int64), minlength=int(dist[t]) + 1)[1:]
    return float(np.sum(4.0 * len(e) / sizes))


def check_sandwich(n: int, edges, exact, upper, lower) -> None:
    """Exact commute times match 4m R_eff, and NW <= C <= cut-sum for every ordered pair."""
    C = commute_times(n, edges)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            c = exact[s][t]
            expect(close(c, C[s, t]), f"C({s},{t}) = {c!r}, 4m R_eff = {C[s, t]!r}")
            expect(lower[s][t] <= c * (1 + REL_TOL), f"NW {lower[s][t]} > C {c} at ({s},{t})")
            expect(c <= upper[s][t] * (1 + REL_TOL), f"C {c} > cut-sum {upper[s][t]} at ({s},{t})")


def check_path(n: int, value: float) -> None:
    expect(close(value, 4.0 * (n - 1) ** 2), f"path n={n}: commute {value!r} != 4(n-1)^2")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def complete_then_cycle_hitting(n: int, complete_steps: int, source: int, target) -> float:
    """Exact E[tau] on the complete-then-cycle schedule.

    Absorbing propagation covers the complete phase; the mass still alive
    afterwards pays the static cycle's hitting times."""
    u, v = np.triu_indices(n, k=1)
    K = lazy_matrix(n, np.column_stack([u, v]))
    i = np.arange(n)
    cycle = lazy_matrix(n, np.column_stack([i, (i + 1) % n]))
    mask = target_mask(n, target)
    p = point(n, source)
    alive = 1.0  # sum of Pr[tau > t] for t < complete_steps
    for t in range(1, complete_steps + 1):
        p = p @ K
        p[mask] = 0.0
        if t < complete_steps:
            alive += p.sum()
    return float(alive + p @ hitting_times(cycle, mask))


def check_monte_carlo_mean(mc, exact: float, slack: float = 0.0) -> None:
    """The trials' own mean within MC_SIGMAS stderr (plus ``slack``) of the exact hitting time.

    Mean and stderr are recomputed from the returned stop times, which must
    also reproduce the returned mean."""
    expect(mc["n_censored"] == 0, f"{mc['n_censored']} censored trials")
    times = np.asarray(mc["times"], dtype=float)
    mean, stderr = times.mean(), times.std(ddof=1) / math.sqrt(len(times))
    expect(close(mc["mean"], mean), f"returned mean {mc['mean']!r} != mean of the times {mean!r}")
    expect(abs(mean - exact) <= MC_SIGMAS * stderr + slack,
           f"mean {mean:.4g} is more than {MC_SIGMAS} stderr from exact {exact:.6g}")


def check_cover(mc, n: int, hit_time: float) -> None:
    expect(mc["n_censored"] == 0, f"{mc['n_censored']} censored trials")
    expect(int(np.min(mc["times"])) >= n - 1, "a cover time is below n - 1")
    expect(mc["mean"] / hit_time >= n / 10.0,
           f"cover/hit = {mc['mean'] / hit_time:.3g} < n/10 = {n / 10.0:.3g}")


def complete_phase(n: int, c: float = 2.0) -> int:
    return math.ceil(c * n * math.log(n))
