"""Static undirected graphs: structure queries and the generator families.

Vertices are dense integers 0..n-1. Graphs are immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import GenerationError, GraphError

DEFAULT_EXPANDER_GAP = 0.05
# Alon-Boppana caps the lazy gap of 3-regular graphs at (1 - 2*sqrt(2)/3)/2
# ~ 0.0286 + o(1), so the 0.05 acceptance default only applies at small n.
LARGE_N_EXPANDER_GAP = 0.02
EXPANDER_GAP_CUTOFF_N = 32
REGULAR_RETRY_CAP = 1000
# pairing attempts are drawn in batches of 4, 8, 16, ... rows, capped at
# REGULAR_BATCH_STUBS stubs a batch (and at least one row)
REGULAR_BATCH_START = 4
REGULAR_BATCH_STUBS = 4096


def expander_gap_threshold(n: int) -> float:
    return DEFAULT_EXPANDER_GAP if n <= EXPANDER_GAP_CUTOFF_N else LARGE_N_EXPANDER_GAP


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derived_rng(seed, *key) -> np.random.Generator:
    """Deterministic per-(seed, key) generator, used for per-step randomness."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


class StaticGraph:
    """Undirected, unweighted simple graph on {0..n-1}.

    Parameters
    ----------
    n : int
        Vertex count.
    edges : array-like, shape (m, 2)
        Unordered vertex pairs; normalized to u < v, sorted, deduplicated.
    """

    def __init__(self, n: int, edges):
        n = int(n)
        if n <= 0:
            raise GraphError("vertex count must be positive")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise GraphError("edge endpoint out of range")
            if (e[:, 0] == e[:, 1]).any():
                raise GraphError("self-loops are not allowed")
            # the sorted 1-D keys lo*n + hi order the pairs lexicographically;
            # sort and mask, as np.unique of 5e5 int64 keys takes ~40x as
            # long as np.sort on numpy 2.4
            lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
            keys = np.sort(lo * n + hi)
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            e = np.column_stack([keys // n, keys % n])
        self.n = n
        self.edges = e
        self.m = int(e.shape[0])
        self.degree = np.bincount(e.ravel(), minlength=n)
        # CSR adjacency, shared by BFS/connectivity/sampling paths.
        ends = np.concatenate([e[:, 0], e[:, 1]])
        other = np.concatenate([e[:, 1], e[:, 0]])
        order = np.argsort(ends, kind="stable")
        self.adj_indices = other[order]
        self.adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degree, out=self.adj_indptr[1:])

    def neighbors(self, u: int) -> np.ndarray:
        return self.adj_indices[self.adj_indptr[u]:self.adj_indptr[u + 1]]

    def csr(self) -> csr_matrix:
        data = np.ones(len(self.adj_indices), dtype=np.int32)
        return csr_matrix((data, self.adj_indices, self.adj_indptr), shape=(self.n, self.n))

    def min_degree(self) -> int:
        return int(self.degree.min())

    def is_regular(self) -> bool:
        return bool(self.degree.size) and int(self.degree.min()) == int(self.degree.max())

    def __eq__(self, other):
        return (
            isinstance(other, StaticGraph)
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self):
        return f"StaticGraph(n={self.n}, m={self.m})"


def _bfs(g: StaticGraph, source: int, keep=None) -> np.ndarray:
    # level-synchronous BFS over the CSR arrays: each level gathers the
    # neighbours of every frontier row at once; O(m) numpy work per level.
    # ``keep``, a mask over the adj_indices entries, walks only those entries.
    row = np.repeat(np.arange(g.n), g.degree)  # CSR row of each adj_indices entry
    col = g.adj_indices
    if keep is not None:
        row, col = row[keep], col[keep]
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    frontier = dist == 0.0
    level = 0.0
    while True:
        nbrs = col[frontier[row]]
        nbrs = nbrs[np.isinf(dist[nbrs])]
        if not nbrs.size:
            return dist
        level += 1.0
        dist[nbrs] = level
        frontier = dist == level


def is_connected(g: StaticGraph) -> bool:
    """Whether g is connected.  A graph is immutable, so the verdict is
    computed once and kept on it."""
    connected = getattr(g, "_connected", None)
    if connected is None:
        connected = g._connected = bool(np.isfinite(_bfs(g, 0)).all())
    return connected


def bfs_distances(g: StaticGraph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable vertices get inf."""
    if not 0 <= source < g.n:
        raise GraphError("source out of range")
    return _bfs(g, source)


def edge_boundary(g: StaticGraph, members) -> list[tuple[int, int]]:
    """Edges with exactly one endpoint in ``members``.

    ``members`` must be a nonempty proper subset of the vertex set.
    """
    mask = _member_mask(g.n, members)
    k = int(mask.sum())
    if k == 0 or k == g.n:
        raise GraphError("edge boundary needs a nonempty proper subset")
    if g.m == 0:
        return []
    cross = mask[g.edges[:, 0]] != mask[g.edges[:, 1]]
    return [(int(u), int(v)) for u, v in g.edges[cross]]


def ball_size(g: StaticGraph, center: int, radius: int) -> int:
    """Number of vertices within hop distance ``radius`` of ``center``."""
    if not 0 <= center < g.n:
        raise GraphError("center out of range")
    if radius < 0:
        raise GraphError("radius must be >= 0")
    dist = bfs_distances(g, center)
    return int(np.sum(dist <= radius))


def edge_connectivity(g: StaticGraph) -> int:
    """Global minimum edge cut, exact.

    Computed as the minimum of n-1 unit-capacity max-flows from vertex 0 to
    every other vertex (each undirected edge is a pair of unit arcs).
    Returns 0 for disconnected graphs.
    """
    if g.n == 1:
        return 0
    if not is_connected(g):
        return 0
    cap = g.csr()
    best = int(g.degree.min())
    for v in range(1, g.n):
        flow = maximum_flow(cap, 0, v).flow_value
        if flow < best:
            best = int(flow)
            if best == 1:
                break
    return best


def _member_mask(n: int, members) -> np.ndarray:
    """Mask of a vertex or a vertex set; raises on a member outside 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    if np.isscalar(members):
        members = [members]
    idx = np.asarray(list(members) if not isinstance(members, np.ndarray) else members, dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= n:
            raise GraphError("vertex subset member out of range")
        mask[idx] = True
    return mask


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------

def cycle_graph(n: int) -> StaticGraph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    i = np.arange(n)
    return StaticGraph(n, np.column_stack([i, (i + 1) % n]))


def path_graph(n: int) -> StaticGraph:
    if n < 2:
        raise GraphError("path needs n >= 2")
    i = np.arange(n - 1)
    return StaticGraph(n, np.column_stack([i, i + 1]))


def complete_graph(n: int) -> StaticGraph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    u, v = np.triu_indices(n, k=1)
    return StaticGraph(n, np.column_stack([u, v]))


def torus_graph(dims) -> StaticGraph:
    """d-dimensional torus; every side must be >= 3 so the graph is simple."""
    dims = [int(d) for d in dims]
    if not dims or any(d < 3 for d in dims):
        raise GraphError("torus needs every side >= 3")
    n = int(np.prod(dims))
    coords = np.indices(dims).reshape(len(dims), n)
    edges = []
    for axis, side in enumerate(dims):
        shifted = coords.copy()
        shifted[axis] = (shifted[axis] + 1) % side
        u = np.ravel_multi_index(coords, dims)
        v = np.ravel_multi_index(shifted, dims)
        edges.append(np.column_stack([u, v]))
    return StaticGraph(n, np.concatenate(edges))


def barbell_graph(n: int) -> StaticGraph:
    """Two cliques of size n/3 joined by a path on the middle n/3 vertices."""
    if n % 3 != 0 or n < 6:
        raise GraphError("barbell needs n divisible by 3, n >= 6")
    k = n // 3
    left = np.arange(k)
    mid = np.arange(k, 2 * k)
    right = np.arange(2 * k, n)
    e = []
    for block in (left, right):
        u, v = np.triu_indices(k, k=1)
        e.append(np.column_stack([block[u], block[v]]))
    chain = np.concatenate([[left[-1]], mid, [right[0]]])
    e.append(np.column_stack([chain[:-1], chain[1:]]))
    return StaticGraph(n, np.concatenate(e))


def circulant_graph(n: int, rho: int = 2) -> StaticGraph:
    """Edges (i, i+u mod n) for 1 <= u <= rho; 2*rho-regular."""
    if rho < 1 or 2 * rho >= n:
        raise GraphError("circulant needs 1 <= rho < n/2")
    i = np.arange(n)
    e = [np.column_stack([i, (i + u) % n]) for u in range(1, rho + 1)]
    return StaticGraph(n, np.concatenate(e))


def complete_prism_graph(n: int) -> StaticGraph:
    """Two complete graphs on n/2 vertices joined by a perfect matching."""
    if n % 2 != 0 or n < 4:
        raise GraphError("complete prism needs even n >= 4")
    h = n // 2
    u, v = np.triu_indices(h, k=1)
    e = [
        np.column_stack([u, v]),
        np.column_stack([u + h, v + h]),
        np.column_stack([np.arange(h), np.arange(h) + h]),
    ]
    return StaticGraph(n, np.concatenate(e))


def random_regular_graph(n: int, d: int, seed) -> StaticGraph:
    """Pairing-model d-regular graph, rejecting self-loops and multi-edges.

    Attempts are drawn in batches, but the graph and the attempt count before
    ``GenerationError`` are those of one ``rng.permutation(stubs)`` per
    attempt.  A Generator passed in is left past the whole batch.
    """
    if d < 1 or d >= n:
        raise GraphError("need 1 <= d < n")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even")
    rng = as_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    most = max(1, REGULAR_BATCH_STUBS // stubs.size)
    tiled = np.tile(stubs, (most, 1))
    drawn, k = 0, min(REGULAR_BATCH_START, most)
    while drawn < REGULAR_RETRY_CAP:
        k = min(k, REGULAR_RETRY_CAP - drawn)
        # row i is the i-th of k successive rng.permutation(stubs) draws:
        # checked on numpy 2.4.6 and guarded by
        # test_random_regular_matches_2d_rejection_oracle and the golden digests
        perm = rng.permuted(tiled[:k], axis=1)
        a, b = perm[:, 0::2], perm[:, 1::2]
        free = (a != b).all(axis=1).nonzero()[0]
        if free.size:
            a, b = a[free], b[free]
            # sorted 1-D keys lo*n + hi: a repeat is a multi-edge, and the keys
            # are the accepted graph's canonical (lexicographic) edge list
            keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b), axis=1)
            simple = (keys[:, 1:] != keys[:, :-1]).all(axis=1).nonzero()[0]
            if simple.size:
                key = keys[simple[0]]
                return StaticGraph(n, np.column_stack([key // n, key % n]))
        drawn += k
        k = min(2 * k, most)
    raise GenerationError(f"pairing model failed after {REGULAR_RETRY_CAP} attempts")


def gnp_connected_graph(n: int, p: float = 0.5, seed=0) -> StaticGraph:
    """Erdos-Renyi graph resampled until connected."""
    if n < 2 or not 0 < p <= 1:
        raise GraphError("need n >= 2 and 0 < p <= 1")
    rng = as_rng(seed)
    u, v = np.triu_indices(n, k=1)
    for _ in range(REGULAR_RETRY_CAP):
        keep = rng.random(len(u)) < p
        g = StaticGraph(n, np.column_stack([u[keep], v[keep]]))
        if is_connected(g):
            return g
    raise GenerationError("could not draw a connected G(n,p) sample")


def expander_graph(n: int, seed=0, forbidden_edges=None) -> StaticGraph:
    """Random 3-regular graph accepted only if connected with lazy spectral gap
    at least the size-aware threshold (0.05 up to n=32, 0.02 beyond, where
    Alon-Boppana rules out 0.05 for cubic graphs); 400 samples are tried.
    ``forbidden_edges`` rejects samples containing any of the given pairs, so a
    caller can union the expander with other edges without degree collisions.
    """
    gap_min = expander_gap_threshold(n)
    if forbidden_edges is None:
        forbidden_edges = []
    forbid = {tuple(sorted(map(int, e))) for e in forbidden_edges}
    for t in range(400):
        g = random_regular_graph(n, 3, derived_rng(seed, t))
        if forbid and any((int(a), int(b)) in forbid for a, b in g.edges):
            continue
        if not is_connected(g):
            continue
        if _lazy_gap_regular(g) >= gap_min:
            return g
    raise GenerationError(f"no expander with gap >= {gap_min} in 400 tries")


def _lazy_gap_regular(g: StaticGraph) -> float:
    # uniform pi makes the lazy matrix symmetric, so P^T = P; large n uses
    # sparse Lanczos
    from . import chain  # deferred: chain imports this module

    if g.n <= 400:
        return chain.spectral_gap(chain.lazy_matrix(g), np.full(g.n, 1.0 / g.n))
    from scipy.sparse.linalg import eigsh

    w = eigsh(chain.lazy_transpose_csc(g), k=2, which="LA", return_eigenvectors=False)
    return float(1.0 - np.sort(w)[0])


# `dynwalks commute --family <name>`: each signature declares the flags it reads
FAMILIES = {
    "cycle": cycle_graph,
    "path": path_graph,
    "complete": complete_graph,
    "barbell": barbell_graph,
    "circulant": circulant_graph,
    "complete_prism": complete_prism_graph,
    "gnp_connected": gnp_connected_graph,
    "expander3": expander_graph,
}


# ---------------------------------------------------------------------------
# text format: first line "n m", then one "u v" line per edge
# ---------------------------------------------------------------------------

def read_graph_text(path) -> StaticGraph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphError("graph text file must start with 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if len(edges) != m:
        raise GraphError(f"expected {m} edges, found {len(edges)}")
    return StaticGraph(n, edges)
