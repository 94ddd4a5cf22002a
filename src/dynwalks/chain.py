"""Lazy transition matrices and their l2(pi) geometry.

Everything here treats a chain as a dense row-stochastic matrix P together
with a stationary distribution pi; reversibility (detailed balance) is the
standing assumption and is checked where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, GraphError
from .graphs import StaticGraph

STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-9
EXACT_CONDUCTANCE_LIMIT = 20
_MASK_CHUNK = 1 << 16


@dataclass
class StationaryDistribution:
    pi: np.ndarray
    pi_star: float


def lazy_matrix(g: StaticGraph) -> np.ndarray:
    """Lazy walk matrix: P(u,u) = 1/2, P(u,v) = 1/(2 d_u) on edges.

    Isolated vertices get an identity row (the walk cannot leave them).
    """
    n = g.n
    P = np.zeros((n, n))
    if g.m:
        d = g.degree.astype(float)
        P[g.edges[:, 0], g.edges[:, 1]] = 0.5 / d[g.edges[:, 0]]
        P[g.edges[:, 1], g.edges[:, 0]] = 0.5 / d[g.edges[:, 1]]
    diag = np.where(g.degree > 0, 0.5, 1.0)
    P[np.arange(n), np.arange(n)] = diag
    return P


def degree_stationary(g: StaticGraph) -> StationaryDistribution:
    """pi(u) = d_u / 2m.

    Detailed balance holds by construction: each edge carries
    pi(u) / (2 d_u) = 1/(4m) of flow in each direction.
    """
    if g.m == 0:
        raise GraphError("degree stationary distribution needs at least one edge")
    pi = g.degree / (2.0 * g.m)
    return StationaryDistribution(pi=pi, pi_star=float(pi[pi > 0].min()))


def _pi_array(pi) -> np.ndarray:
    if isinstance(pi, StationaryDistribution):
        return pi.pi
    return np.asarray(pi, dtype=float)


def detailed_balance_residual(P, pi) -> float:
    pi = _pi_array(pi)
    F = pi[:, None] * P
    return float(np.abs(F - F.T).max())


def inner_product_pi(f, g, pi) -> float:
    """<f, g>_pi = sum_u f(u) g(u) pi(u)."""
    pi = _pi_array(pi)
    return float(np.sum(np.asarray(f, float) * np.asarray(g, float) * pi))


def variance_pi(f, pi) -> float:
    """Var_pi f = E_pi f^2 - (E_pi f)^2; equals E_pi f^2 - 1 for likelihood ratios."""
    pi = _pi_array(pi)
    f = np.asarray(f, float)
    mean = float(np.sum(f * pi))
    return float(np.sum(f * f * pi) - mean * mean)


def likelihood_ratio(p, pi) -> np.ndarray:
    """rho = p / pi entrywise; infinite mass off the support of pi is rejected."""
    pi = _pi_array(pi)
    p = np.asarray(p, float)
    rho = np.zeros_like(p)
    on = pi > 0
    if np.any(p[~on] > STRUCTURAL_TOL):
        raise GraphError("distribution puts mass outside the support of pi")
    rho[on] = p[on] / pi[on]
    return rho


def dirichlet_form(P, f, pi) -> float:
    """E_P(f,f) = (1/2) sum_{u,v} (f(u)-f(v))^2 pi(u) P(u,v) for a dense matrix P."""
    pi = _pi_array(pi)
    f = np.asarray(f, float)
    diff = f[:, None] - f[None, :]
    return float(0.5 * np.sum(diff * diff * (pi[:, None] * P)))


def dirichlet_form_edges(g: StaticGraph, f, pi=None) -> float:
    """E_P(f,f) for the lazy step P of g, summed over the edges of g.

    Uses the per-edge flow pi(u) P(u,v) = pi(u)/(2 d_u), valid for any pi
    satisfying detailed balance with the step (flows are symmetric); pi
    defaults to the degree-stationary distribution of g.
    """
    if g.m == 0:
        return 0.0
    pi = degree_stationary(g).pi if pi is None else _pi_array(pi)
    f = np.asarray(f, float)
    u, v = g.edges[:, 0], g.edges[:, 1]
    w = pi[u] * 0.5 / g.degree[u]
    diff = f[u] - f[v]
    return float(np.sum(w * diff * diff))


def spectral_gap(P, pi) -> float:
    """1 minus the second-largest eigenvalue of the pi-symmetrized matrix."""
    pi = _pi_array(pi)
    if P.shape[0] < 2:
        raise GraphError("spectral gap needs at least two states")
    scale = max(float(np.abs(P).max()), 1.0)
    if detailed_balance_residual(P, pi) > 1e-10 * scale:
        raise GraphError("matrix is not reversible with respect to pi")
    return float(1.0 - chain_eigenvalues(P, pi)[-2])


def chain_eigenvalues(P, pi) -> np.ndarray:
    """All eigenvalues of the reversible chain, ascending."""
    pi = _pi_array(pi)
    root = np.sqrt(pi)
    S = (root[:, None] / root[None, :]) * P
    S = 0.5 * (S + S.T)
    return np.linalg.eigvalsh(S)


def _crossing_pairs(P, pi):
    """Unordered pairs with positive flow and their symmetric weights pi(u)P(u,v)."""
    pi = _pi_array(pi)
    F = pi[:, None] * P
    iu, iv = np.nonzero(np.triu(F + F.T, k=1) > 0)
    w = F[iu, iv]  # equals F[iv, iu] by reversibility
    return iu, iv, w


def conductance(P, pi) -> float:
    """Exact conductance: exhaustive minimum over all nonempty proper subsets.

    Limited to n <= 20 states; use conductance_sampled beyond that.
    """
    pi = _pi_array(pi)
    n = P.shape[0]
    if n > EXACT_CONDUCTANCE_LIMIT:
        raise CapabilityError(
            f"exhaustive conductance limited to n <= {EXACT_CONDUCTANCE_LIMIT};"
            " conductance_sampled provides a flagged approximation"
        )
    iu, iv, w = _crossing_pairs(P, pi)
    best = np.inf
    for lo in range(1, 1 << (n - 1), _MASK_CHUNK):
        masks = np.arange(lo, min(lo + _MASK_CHUNK, 1 << (n - 1)), dtype=np.int64)
        cross = ((masks[:, None] >> iu) ^ (masks[:, None] >> iv)) & 1
        q = cross @ w
        bits = (masks[:, None] >> np.arange(n)) & 1
        pa = bits @ pi
        phi = q / np.minimum(pa, 1.0 - pa)
        best = min(best, float(phi.min()))
    return best


def conductance_sampled(P, pi, samples: int, seed) -> tuple[float, bool]:
    """Sampled upper estimate of the conductance.

    Returns ``(estimate, exact)``. The estimate is the minimum over all
    singletons and ``samples`` random subsets, an upper bound on the true
    conductance, so ``exact`` is always False.
    """
    pi = _pi_array(pi)
    n = P.shape[0]
    rng = np.random.default_rng(seed)
    iu, iv, w = _crossing_pairs(P, pi)
    best = np.inf
    # all singletons, then random subsets
    for u in range(n):
        q = float(w[(iu == u) | (iv == u)].sum())
        best = min(best, q / min(pi[u], 1.0 - pi[u]))
    for _ in range(samples):
        size = int(rng.integers(1, n // 2 + 1))
        members = rng.choice(n, size=size, replace=False)
        mask = np.zeros(n, bool)
        mask[members] = True
        inside = mask[iu] != mask[iv]
        q = float(w[inside].sum())
        pa = float(pi[mask].sum())
        best = min(best, q / min(pa, 1.0 - pa))
    return best, False


def cut_profile(g: StaticGraph) -> np.ndarray:
    """minimum |E(S, V-S)| over |S| = k, for k = 0..n (inf at k=0 and k=n)."""
    n = g.n
    if n > EXACT_CONDUCTANCE_LIMIT:
        raise CapabilityError(f"exact profile limited to n <= {EXACT_CONDUCTANCE_LIMIT}")
    iu, iv = g.edges[:, 0], g.edges[:, 1]
    best = np.full(n + 1, np.inf)
    for lo in range(1, (1 << n) - 1, _MASK_CHUNK):
        masks = np.arange(lo, min(lo + _MASK_CHUNK, (1 << n) - 1), dtype=np.int64)
        cross = ((masks[:, None] >> iu) ^ (masks[:, None] >> iv)) & 1
        cuts = cross.sum(axis=1)
        sizes = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
        np.minimum.at(best, sizes, cuts)
    return best
