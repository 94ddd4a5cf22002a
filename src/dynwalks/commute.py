"""Commute times on static graphs and the cut-based bounds around them.

Everything is computed for the lazy chain and expressed through probability
flows Q(.), under which each edge of a prefix cut carries exactly 1/(4m).
The literal 2m-normalized forms from the non-lazy convention are reported
alongside for comparison; the flow forms are the provable bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain
from .errors import GraphError
from .graphs import StaticGraph, _bfs, bfs_distances, edge_connectivity, is_connected

VOLTAGE_RESIDUAL_TOL = 1e-9


def _require_connected(g: StaticGraph):
    if not is_connected(g):
        raise GraphError("operation requires a connected graph")


def _require_vertices(g: StaticGraph, *vertices):
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")


def _laplacian_pinv(g: StaticGraph) -> np.ndarray:
    """L+ = inv(L + J/n) - J/n, J the all-ones matrix; raises GraphError unless g
    is connected.  Every commute, hitting and voltage quantity below is read
    off it: C_uv = 4m (L+uu + L+vv - 2 L+uv) (lazy walk).  A graph is
    immutable, so L+ is computed once and kept on it, read-only."""
    Lp = getattr(g, "_laplacian_pinv", None)
    if Lp is None:
        _require_connected(g)
        J = np.full((g.n, g.n), 1.0 / g.n)
        L = np.diag(g.degree.astype(float))
        L[g.edges[:, 0], g.edges[:, 1]] = L[g.edges[:, 1], g.edges[:, 0]] = -1.0
        Lp = np.linalg.inv(L + J) - J
        Lp.setflags(write=False)
        g._laplacian_pinv = Lp
    return Lp


def hitting_times_to(g: StaticGraph, target: int) -> np.ndarray:
    """Expected lazy-walk times to reach ``target`` from every vertex:
    2 (a - a[target]) with a = L+ d - 2m L+[:, target]."""
    _require_vertices(g, target)
    Lp = _laplacian_pinv(g)
    a = Lp @ g.degree - 2.0 * g.m * Lp[:, target]
    return 2.0 * (a - a[target])


def exact_commute(g: StaticGraph, s: int, t: int) -> float:
    """C_st = tau_{s,t} + tau_{t,s}; returns 0.0 for s == t by convention."""
    _require_vertices(g, s, t)
    if s == t:
        return 0.0
    Lp = _laplacian_pinv(g)
    return float(4.0 * g.m * (Lp[s, s] + Lp[t, t] - 2.0 * Lp[s, t]))


def commute_matrix(g: StaticGraph) -> np.ndarray:
    """All pairwise commute times, 4m (L+uu + L+vv - 2 L+uv)."""
    Lp = _laplacian_pinv(g)
    d = np.diag(Lp)
    return 4.0 * g.m * (d[:, None] + d[None, :] - 2.0 * Lp)


def max_commute(g: StaticGraph) -> float:
    return float(commute_matrix(g).max())


@dataclass
class VoltageFunction:
    """A voltage on the vertices: 0 at s, 1 at t, harmonic elsewhere."""
    values: np.ndarray
    s: int
    t: int


def solve_voltage(g: StaticGraph, s: int, t: int) -> VoltageFunction:
    """The harmonic maximiser of the variational commute-time characterisation:
    g(s) = 0, g(t) = 1, harmonic elsewhere, with 1/E_P(g,g) = C_st."""
    _require_vertices(g, s, t)
    if s == t:
        raise GraphError("voltage needs distinct endpoints")
    # the potential of a unit current from t to s, scaled to 0 at s and 1 at t
    Lp = _laplacian_pinv(g)
    x = Lp[:, t] - Lp[:, s]
    vals = (x - x[s]) / (x[t] - x[s])
    return VoltageFunction(values=_checked_voltages(g, vals, [s, t]), s=s, t=t)


def _checked_voltages(g: StaticGraph, vals: np.ndarray, fixed) -> np.ndarray:
    """``vals`` clipped to [0, 1], after checking that each column (axis 0) is
    harmonic off its entries ``vals[fixed]`` and lies in [0, 1]."""
    # harmonic: vals = P vals, with P applied over g's adjacency arrays (g is
    # connected, so no vertex has an empty neighbour segment); transposed, so
    # that the per-vertex entries of P broadcast over the columns
    diag, off = chain._lazy_entries(g)
    nbrs = np.add.reduceat(vals[g.adj_indices], g.adj_indptr[:-1], axis=0)
    resid = np.abs(vals.T - (diag * vals.T + off * nbrs.T)).T
    resid[fixed] = 0.0
    if resid.max() > VOLTAGE_RESIDUAL_TOL:
        raise GraphError(f"voltage solve residual {resid.max():.3e} exceeds tolerance")
    if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
        raise GraphError("voltage escaped [0, 1]")
    return np.clip(vals, 0.0, 1.0)


def voltage_commute_bound(g: StaticGraph, volt: VoltageFunction) -> float:
    """1 / E_P(g,g) for the lazy chain; equals the exact commute time."""
    return 1.0 / chain.dirichlet_form_edges(g, volt.values)


def _prefix_cuts(g: StaticGraph, order: np.ndarray) -> np.ndarray:
    """|boundary([j])| of the prefixes [j], j = 1..n-1, of ``order``."""
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)
    pu, pv = pos[g.edges[:, 0]], pos[g.edges[:, 1]]
    # edge crosses prefix j (1-indexed size) iff a < j <= b, so the cut of
    # prefix j counts the a <= j - 1 less the b <= j - 1
    a, b = np.minimum(pu, pv), np.maximum(pu, pv)
    return np.cumsum(np.bincount(a, minlength=g.n) - np.bincount(b, minlength=g.n))[:-1]


def _tie_rank(values: np.ndarray) -> np.ndarray:
    """Dense ranks of ``values`` along axis 0 in which a value within 1e-9 of
    its sorted neighbour shares that neighbour's rank, so roundoff cannot split
    a tie.  Each column of a 2-D block is ranked on its own; a 1-D vector is
    the one-column case."""
    v = values.reshape(len(values), -1)
    order = np.argsort(v, axis=0, kind="stable")
    cols = np.arange(v.shape[1])
    rank = np.zeros(v.shape, dtype=np.int64)
    rank[order[1:], cols] = np.cumsum(np.diff(v[order, cols], axis=0) > 1e-9, axis=0)
    return rank.reshape(values.shape)


def voltage_labelling(g: StaticGraph, volt: VoltageFunction) -> np.ndarray:
    """Vertices by non-decreasing voltage rank, ties by index, s first and t last."""
    key = volt.values.copy()
    key[volt.s] = -np.inf
    key[volt.t] = np.inf
    return np.lexsort((np.arange(g.n), _tie_rank(key)))


@dataclass
class CutBound:
    """A cut-based commute-time bound, in flow and in 2m normalization."""
    flow: float        # sum_j 1/Q(cut j) = 4m sum_j 1/|cut j|: the lazy-chain bound
    literal_2m: float  # simple-walk (2m) normalization, for comparison


def cut_sum_upper(g: StaticGraph, s: int, t: int) -> tuple[np.ndarray, CutBound]:
    """The voltage ordering of s and t, and its prefix-cut upper bounds on the
    lazy commute time."""
    order = voltage_labelling(g, solve_voltage(g, s, t))
    cuts = _prefix_cuts(g, order)
    flow = float(np.sum(1.0 / (cuts / (4.0 * g.m))))
    literal = float(2.0 * g.m * (1.0 / cuts).sum())
    return order, CutBound(flow=flow, literal_2m=literal)


def cut_sums_from(g: StaticGraph, s: int) -> np.ndarray:
    """``cut_sum_upper(g, s, t)[1].flow`` for every target t, 0.0 at t = s.
    Column t of one n x n block is the voltage from s to t; the block is
    checked, ranked and ordered as a whole, and each ordering is cut alone."""
    _require_vertices(g, s)
    Lp = _laplacian_pinv(g)
    diag = np.arange(g.n)
    x = Lp - Lp[:, [s]]
    scale = x[diag, diag] - x[s]
    scale[s] = 1.0  # column s is all zero; keep 0/0 out of it
    fixed = np.eye(g.n, dtype=bool)
    fixed[s] = True
    key = _checked_voltages(g, (x - x[s]) / scale, fixed)
    key[s] = -np.inf
    key[diag, diag] = np.inf
    order = np.argsort(_tie_rank(key), axis=0, kind="stable")  # ties by index
    flows = np.array([np.sum(1.0 / (_prefix_cuts(g, o) / (4.0 * g.m))) for o in order.T])
    flows[s] = 0.0
    return flows


def connected_labelling(g: StaticGraph, volt: VoltageFunction) -> np.ndarray | None:
    """A voltage-monotone ordering whose every prefix induces a connected
    subgraph: from s, repeatedly add the lowest-voltage frontier vertex.

    The walk completes: by the discrete minimum principle every sublevel set
    {v : g(v) <= a}, a < 1, of the harmonic voltage is connected to s, so the
    lowest frontier vertex never lies below the last vertex added.  The
    ordering's last vertex carries voltage 1 but need not be t itself (a
    pendant neighbor of t ties at voltage 1 and can only come after t).
    Voltages within 1e-9 count as equal; a walk that roundoff stops anyway
    returns None, never a fabricated ordering."""
    n, s = g.n, volt.s
    gv = volt.values
    rank = _tie_rank(gv)
    order = [s]
    used = np.zeros(n, dtype=bool)
    used[s] = True
    while len(order) < n:
        frontier = sorted(
            {int(w) for u in order for w in g.neighbors(u) if not used[w]},
            key=lambda w: (rank[w], w))
        if not frontier or gv[frontier[0]] < gv[order[-1]] - 1e-9:
            return None
        pick = frontier[0]
        order.append(pick)
        used[pick] = True
    return np.array(order)


def prefixes_connected(g: StaticGraph, order) -> bool:
    """Direct check that every prefix of the ordering induces a connected subgraph."""
    seen = np.zeros(g.n, dtype=bool)
    seen[order[0]] = True
    for v in order[1:]:
        if not any(seen[w] for w in g.neighbors(v)):
            return False
        seen[v] = True
    return True


def distance_layer_cutsets(g: StaticGraph, s: int, t: int) -> list[list[tuple[int, int]]]:
    """Canonical edge-disjoint cutsets: edges from {dist < j} to {dist >= j}
    for j = 1..dist(s,t), distances measured from s."""
    _require_vertices(g, t)
    dist = bfs_distances(g, s)
    if not np.isfinite(dist[t]):
        raise GraphError(f"vertex {t} is unreachable from {s}")
    layer = _edge_layers(g, dist)
    return [list(map(tuple, g.edges[layer == j].tolist())) for j in range(1, int(dist[t]) + 1)]


def _edge_layers(g: StaticGraph, dist: np.ndarray) -> np.ndarray:
    """Per edge, the j >= 1 of the distance layer E_j it belongs to (it joins
    distance j - 1 to j), or 0 for an edge within one distance."""
    du, dv = dist[g.edges[:, 0]], dist[g.edges[:, 1]]
    lo, hi = np.minimum(du, dv), np.maximum(du, dv)
    return np.where(hi == lo + 1, hi, 0)


def nash_williams_lower(g: StaticGraph, s: int, t: int, cutsets) -> CutBound:
    """Lower bound on the lazy commute time from edge-disjoint separating cutsets."""
    _require_vertices(g, s, t)
    _require_connected(g)
    edge_keys = g.edges[:, 0] * g.n + g.edges[:, 1]  # ascending, as g's edges are sorted
    seen: set[tuple[int, int]] = set()
    for j, cs in enumerate(cutsets):
        norm = {tuple(sorted(map(int, e))) for e in cs}
        if len(norm) != len(cs):
            raise GraphError(f"cutset {j} contains duplicate edges")
        if norm & seen:
            raise GraphError(f"cutset {j} shares edges with an earlier cutset")
        cut = np.array(sorted(norm), dtype=np.int64).reshape(-1, 2)
        cut_keys = cut[:, 0] * g.n + cut[:, 1]  # ascending, as the pairs are sorted
        at = np.searchsorted(edge_keys, cut_keys)
        if cut.size and (cut.min() < 0 or cut.max() >= g.n or at.max() == g.m
                         or (edge_keys[at] != cut_keys).any()):
            raise GraphError(f"cutset {j} holds a pair that is no edge of g")
        if not _separates(g, s, t, cut_keys):
            raise GraphError(f"cutset {j} does not separate s from t")
        seen |= norm
    sizes = np.array([len(cs) for cs in cutsets], dtype=float)
    flow = float(np.sum(4.0 * g.m / sizes))
    literal = float(np.sum(2.0 * g.m / sizes))
    return CutBound(flow=flow, literal_2m=literal)


def nash_williams_from(g: StaticGraph, s: int) -> np.ndarray:
    """``nash_williams_lower(g, s, t, distance_layer_cutsets(g, s, t)).flow``
    for every target t, 4m sum_{j <= dist(s,t)} 1/|E_j|, from one BFS; 0.0 at
    t = s.  The distance layers separate s from t by construction."""
    _require_connected(g)
    dist = bfs_distances(g, s)
    depth = int(dist.max())
    sizes = np.bincount(_edge_layers(g, dist).astype(np.int64), minlength=depth + 1)[1:]
    terms = 4.0 * g.m / sizes.astype(float)
    flows = np.array([np.sum(terms[:j]) for j in range(depth + 1)])
    return flows[dist.astype(np.int64)]


def _separates(g: StaticGraph, s: int, t: int, cut_keys: np.ndarray) -> bool:
    # mask the adjacency entries of the edges whose ascending keys u * n + v
    # (u < v) are ``cut_keys``
    row = np.repeat(np.arange(g.n), g.degree)
    col = g.adj_indices
    keys = np.minimum(row, col) * g.n + np.maximum(row, col)
    keep = np.searchsorted(cut_keys, keys) == np.searchsorted(cut_keys, keys, side="right")
    return not np.isfinite(_bfs(g, s, keep)[t])


def profile_bound(g: StaticGraph) -> float:
    """4n sum_{j<=n/2} 1/(Phi_j j) where Phi_j = min_{|S|=j} |E(S,S^c)|/(d j).

    Simplifies to 4 n d sum 1/cutmin_j; regular graphs, exact profile only.
    """
    if not g.is_regular():
        raise GraphError("profile bound needs a regular graph")
    d = int(g.degree[0])
    cutmin = chain.cut_profile(g)
    js = np.arange(1, g.n // 2 + 1)
    return float(4.0 * g.n * d * np.sum(1.0 / cutmin[js]))


def eigen_sum(g: StaticGraph) -> float:
    """sum_{k>=2} 1/(1 - lambda_k) over the lazy chain's eigenvalues."""
    _require_connected(g)
    pi = chain.degree_stationary(g).pi
    w = chain.chain_eigenvalues(chain.lazy_matrix(g), pi)
    return float(np.sum(1.0 / (1.0 - w[:-1])))


def connectivity_bound(g: StaticGraph) -> float:
    """n^2 dbar (log2(delta)/delta^2 + 1/(delta rho)) with explicit constant 1."""
    _require_connected(g)
    delta = int(g.degree.min())
    rho = edge_connectivity(g)
    dbar = 2.0 * g.m / g.n
    return float(g.n ** 2 * dbar * (np.log2(delta) / delta ** 2 + 1.0 / (delta * rho)))
