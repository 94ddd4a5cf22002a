"""The lazy walk step and its l2(pi) geometry.

This module is the one place that writes the lazy step's entries: 1/2 on the
diagonal, 1/(2 d_u) from u to each neighbour, and 1 on an isolated vertex's
diagonal.  ``lazy_matrix`` builds P dense, ``lazy_transpose_csc`` builds P^T
as a scipy CSC array from the graph's adjacency arrays, and
``pi_step_residual`` and ``dirichlet_form_edges`` apply P edge by edge without
building it.  The spectral and conductance functions take a dense
row-stochastic P with a stationary pi and assume reversibility (detailed
balance), checking it where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CapabilityError, GraphError
from .graphs import StaticGraph

STRUCTURAL_TOL = 1e-12
EXACT_CONDUCTANCE_LIMIT = 20
_MASK_CHUNK = 1 << 16


@dataclass
class StationaryDistribution:
    """A stationary distribution pi and its smallest entry pi_star."""
    pi: np.ndarray
    pi_star: float


def _lazy_entries(g: StaticGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex u: the diagonal P(u,u) and the entry P(u,v) = 1/(2 d_u) on
    each edge.  An isolated vertex keeps all its mass: P(u,u) = 1."""
    deg = g.degree
    return np.where(deg > 0, 0.5, 1.0), 0.5 / np.maximum(deg, 1)


def lazy_matrix(g: StaticGraph) -> np.ndarray:
    """Lazy walk matrix: P(u,u) = 1/2, P(u,v) = 1/(2 d_u) on edges.

    Isolated vertices get an identity row (the walk cannot leave them).
    """
    n = g.n
    diag, off = _lazy_entries(g)
    u, v = g.edges[:, 0], g.edges[:, 1]
    P = np.zeros((n, n))
    P[u, v] = off[u]
    P[v, u] = off[v]
    P[np.arange(n), np.arange(n)] = diag
    return P


def lazy_transpose_csc(g: StaticGraph) -> sparse.csc_array:
    """P^T for P = ``lazy_matrix(g)``, as a CSC array built from g's
    adjacency arrays: column v of P^T is row v of P.

    Each column holds its diagonal entry first, then the neighbours in
    adjacency order; an isolated vertex's column is its diagonal 1.
    """
    n, deg = g.n, g.degree
    diag_entry, off_entry = _lazy_entries(g)
    indptr = g.adj_indptr + np.arange(n + 1)
    diag = indptr[:-1]
    off = np.ones(indptr[-1], dtype=bool)
    off[diag] = False
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[diag] = np.arange(n)
    indices[off] = g.adj_indices
    data = np.empty(indptr[-1])
    data[diag] = diag_entry
    data[off] = np.repeat(off_entry, deg)
    return sparse.csc_array((data, indices, indptr), shape=(n, n))


def _pi_per_degree(g: StaticGraph, pi: np.ndarray) -> np.ndarray:
    """pi(u) / d_u: twice the flow pi(u) P(u,v) along each edge out of u."""
    return pi / np.maximum(g.degree, 1)


def pi_step_residual(g: StaticGraph, pi: np.ndarray) -> float:
    """max_v |(pi P)(v) - pi(v)| for the lazy step P of g, without building it."""
    diag, _ = _lazy_entries(g)
    half = 0.5 * _pi_per_degree(g, pi)
    u, v = g.edges[:, 0], g.edges[:, 1]
    flow_in = np.zeros(g.n)
    np.add.at(flow_in, v, half[u])
    np.add.at(flow_in, u, half[v])
    return float(np.abs(diag * pi + flow_in - pi).max())


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


def dirichlet_form_edges(g: StaticGraph, f, pi=None) -> float:
    """E_P(f,f) = (1/2) sum_{u,v} (f(u)-f(v))^2 pi(u) P(u,v) for the lazy step
    P of g, summed over the edges of g.

    Edge {u, v} carries (pi(u) P(u,v) + pi(v) P(v,u)) / 2
    = (pi(u)/d_u + pi(v)/d_v) / 4, which holds for any pi, stationary or not;
    pi defaults to the degree-stationary distribution of g.  The form is
    linear in P: the form of an average of steps is the average of theirs.
    """
    if g.m == 0:
        return 0.0
    pi = degree_stationary(g).pi if pi is None else _pi_array(pi)
    f = np.asarray(f, float)
    r = _pi_per_degree(g, pi)
    u, v = g.edges[:, 0], g.edges[:, 1]
    w = (r[u] + r[v]) / 4
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


def _subset_chunks(n: int, iu, iv, stop: int):
    """The masks 1 .. stop - 1 of vertex subsets, in chunks of _MASK_CHUNK;
    per chunk, each mask's crossing indicators for the pairs (iu, iv) and its
    n vertex bits, one row per mask."""
    for lo in range(1, stop, _MASK_CHUNK):
        masks = np.arange(lo, min(lo + _MASK_CHUNK, stop), dtype=np.int64)[:, None]
        yield ((masks >> iu) ^ (masks >> iv)) & 1, (masks >> np.arange(n)) & 1


def conductance(P, pi) -> float:
    """Exact conductance: exhaustive minimum over all nonempty proper subsets.

    Limited to n <= 20 states.
    """
    pi = _pi_array(pi)
    n = P.shape[0]
    if n > EXACT_CONDUCTANCE_LIMIT:
        raise CapabilityError(
            f"exhaustive conductance limited to n <= {EXACT_CONDUCTANCE_LIMIT}")
    # unordered pairs with positive flow and their weights pi(u) P(u,v)
    F = pi[:, None] * P
    iu, iv = np.nonzero(np.triu(F + F.T, k=1) > 0)
    w = F[iu, iv]  # equals F[iv, iu] by reversibility
    best = np.inf
    # a subset and its complement share a conductance: the masks leave vertex n-1 out
    for cross, bits in _subset_chunks(n, iu, iv, 1 << (n - 1)):
        pa = bits @ pi
        phi = (cross @ w) / np.minimum(pa, 1.0 - pa)
        best = min(best, float(phi.min()))
    return best


def cut_profile(g: StaticGraph) -> np.ndarray:
    """minimum |E(S, V-S)| over |S| = k, for k = 0..n (inf at k=0 and k=n)."""
    n = g.n
    if n > EXACT_CONDUCTANCE_LIMIT:
        raise CapabilityError(f"exact profile limited to n <= {EXACT_CONDUCTANCE_LIMIT}")
    best = np.full(n + 1, np.inf)
    for cross, bits in _subset_chunks(n, g.edges[:, 0], g.edges[:, 1], (1 << n) - 1):
        np.minimum.at(best, bits.sum(axis=1), cross.sum(axis=1))
    return best
