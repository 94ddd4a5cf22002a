"""Evolving graph sequences with a fixed vertex set.

A schedule serves ``step(t)`` for t >= 1.  Three kinds exist: a finite list,
a periodic list (optionally preceded by a finite prefix), and a seeded
generator that materializes steps on demand.  Stored steps are served
straight from their runs; generated steps are memoized so repeated traversals
stay cheap.

A step operator is P^T, the transpose of the lazy walk matrix P of the step's
graph, so that one step of a distribution (or of one distribution per column)
is ``step_matrix(t) @ X``.  Its representation follows the graph's density:
``chain.lazy_transpose_csc`` for a large sparse graph (n >= SPARSE_MIN_N and
at most n^2 / SPARSE_FILL nonzeros in P), the transposed view of the dense
``chain.lazy_matrix`` otherwise.  A stored step's operator is built once and
kept.  A dense one is kept per prefix or cycle run, so below n = SPARSE_MIN_N
it takes at most 8 n^2 bytes.  A CSC one is kept, read-only, on the step's
graph itself, so every step and every schedule holding that graph object
applies the same operator.  A generated step's operator is built on each call
and kept nowhere.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections import OrderedDict
from itertools import accumulate
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import chain
from .errors import GraphError, ValidationError
from .graphs import StaticGraph, is_connected

PI_TOL = 1e-10
_GRAPH_CACHE_CAP = 4096
# Where a CSC step operator beats the dense one, for one step P^T @ X with k
# columns, measured at n = 64..512 on random 4-regular graphs and at fills
# n^2/4..n^2/32 (one BLAS thread, numpy 2.4, scipy 1.17, 2-vCPU x86 host; best
# of 15, this host drifts by up to 2x).  A cached CSC apply costs 5-10 us with
# k = 1 and 6-20 us with k = 3 at n = 128..512, against 5-70 us and 6-180 us
# dense; a CSC build costs 35-85 us, a dense one writes all n^2 entries:
# - a cached operator with k = 1 or 3: CSC wins from n = 128-192, up to
#   n^2/16 nonzeros at n = 192-256 and n^2/4 at n = 512;
# - k = n (measure_mixing): CSC wins from n = 128, up to n^2/16 nonzeros at
#   n = 192-256 and n^2/8 at n = 512;
# - an operator built afresh each step (generated steps): CSC
#   wins from n = 256-320, up to n^2/8 nonzeros at n = 512.
# The rule below sits between the first two and the third, with a 2x margin
# on density.
SPARSE_MIN_N = 192
SPARSE_FILL = 32


class GraphSchedule:
    """Sequence of StaticGraphs on one vertex universe.

    Exactly one of the following shapes applies:

    - finite:    ``prefix_runs`` only; ``step(t)`` past the end raises.
    - periodic:  ``cycle_runs`` repeats forever after the optional prefix.
    - generator: ``generator = {"family", "params", "seed"}`` builds steps.

    ``pi`` is the declared common stationary distribution, if any.
    """

    def __init__(self, n, *, prefix_runs=None, cycle_runs=None, generator=None,
                 pi=None, name="", meta=None):
        self.n = int(n)
        self.prefix_runs = list(prefix_runs or [])
        self.cycle_runs = list(cycle_runs) if cycle_runs else None
        self.generator = dict(generator) if generator else None
        if (self.cycle_runs is not None or self.prefix_runs) and self.generator:
            raise GraphError("a schedule is either step-backed or generator-backed")
        self.pi = None if pi is None else np.asarray(pi, dtype=float)
        self.name = name
        self.meta = dict(meta or {})
        for g, rep in self.prefix_runs + (self.cycle_runs or []):
            if g.n != self.n:
                raise GraphError("all steps must share the vertex count")
            if rep < 1:
                raise GraphError("run repeat counts must be >= 1")
        self._graphs = OrderedDict()  # generator steps only
        self._operators = {}  # stored steps only
        # cumulative run ends: step t lies in the first run whose end is >= t
        self._prefix_ends = list(accumulate(rep for _, rep in self.prefix_runs))
        self._cycle_ends = list(accumulate(rep for _, rep in self.cycle_runs or []))
        self._prefix_len = self._prefix_ends[-1] if self._prefix_ends else 0
        self._cycle_len = self._cycle_ends[-1] if self._cycle_ends else 0

    @property
    def kind(self) -> str:
        if self.generator is not None:
            return "generator"
        return "periodic" if self.cycle_runs is not None else "finite"

    @property
    def period(self):
        return self._cycle_len if self.kind == "periodic" else None

    @property
    def horizon(self):
        """Last valid step for finite schedules, None otherwise."""
        return self._prefix_len if self.kind == "finite" else None

    def step_key(self, t: int):
        """Canonical cache key: collapses periodic repetition."""
        if t < 1:
            raise GraphError("steps are indexed from 1")
        if self.kind == "generator":
            return ("g", t)
        if t <= self._prefix_len:
            return ("p", bisect_left(self._prefix_ends, t))
        if self.kind == "finite":
            raise GraphError(f"finite schedule has only {self._prefix_len} steps")
        off = (t - self._prefix_len - 1) % self._cycle_len + 1
        return ("c", bisect_left(self._cycle_ends, off))

    def step(self, t: int) -> StaticGraph:
        kind, i = key = self.step_key(t)
        if kind == "p":
            return self.prefix_runs[i][0]
        if kind == "c":
            return self.cycle_runs[i][0]
        got = self._graphs.get(key)
        if got is not None:
            self._graphs.move_to_end(key)
            return got
        g = _generator_step(self.n, self.generator, t)
        self._graphs[key] = g
        if len(self._graphs) > _GRAPH_CACHE_CAP:
            self._graphs.popitem(last=False)
        return g

    def step_matrix(self, t: int) -> np.ndarray | sparse.csc_array:
        """P^T for the lazy walk matrix P of step t: the CSC
        ``chain.lazy_transpose_csc`` when n >= SPARSE_MIN_N and P's n + 2m
        nonzeros are at most n^2 / SPARSE_FILL, else the transposed view of
        the dense ``chain.lazy_matrix``.  Kept per step key for a stored
        step, and a CSC one also on the step's graph, where every step and
        schedule holding that graph finds it.  Built on each call for a
        generated step, unless its graph already holds a CSC one."""
        key = self.step_key(t)
        op = self._operators.get(key)
        if op is None:
            g, n, stored = self.step(t), self.n, key[0] != "g"
            if n >= SPARSE_MIN_N and (n + 2 * g.m) * SPARSE_FILL <= n * n:
                op = _lazy_transpose_csc(g, keep=stored)
            else:
                op = chain.lazy_matrix(g).T
            if stored:
                self._operators[key] = op
        return op

    def __repr__(self):
        return f"GraphSchedule(n={self.n}, kind={self.kind!r}, name={self.name!r})"


def _lazy_transpose_csc(g: StaticGraph, keep: bool) -> sparse.csc_array:
    """``chain.lazy_transpose_csc(g)``, read from g if g already holds it.
    With ``keep``, a fresh one is made read-only and kept on g, as a graph is
    immutable: every step and schedule holding g then applies the same
    operator, and it cannot be reordered in place (``sort_indices()`` would
    change the summation order of every later apply)."""
    op = getattr(g, "_lazy_transpose_csc", None)
    if op is None:
        op = chain.lazy_transpose_csc(g)
        if keep:
            for a in (op.data, op.indices, op.indptr):
                a.setflags(write=False)
            g._lazy_transpose_csc = op
    return op


def _generator_step(n, generator, t) -> StaticGraph:
    from . import constructions  # deferred: constructions imports this module

    fam = constructions.GENERATOR_FAMILIES.get(generator["family"])
    if fam is None:
        raise GraphError(f"unknown schedule generator family {generator['family']!r}")
    g = fam(n, generator.get("params", {}), generator.get("seed"), t)
    if g.n != n:
        raise GraphError("generator produced a graph on the wrong vertex count")
    return g


# ---------------------------------------------------------------------------
# common-stationarity validation
# ---------------------------------------------------------------------------

def validate_common_stationary(s: GraphSchedule, horizon: int) -> chain.StationaryDistribution:
    """Certify one pi with pi P^(t) = pi for every step up to the horizon.

    For periodic schedules one prefix+period pass suffices and is enforced.
    The candidate is the schedule's declared pi or, for all-connected
    schedules with time-invariant degrees, the degree stationary distribution
    of step 1.
    """
    if horizon < 1:
        raise GraphError("horizon must be >= 1")
    if s.kind == "periodic":
        horizon = s._prefix_len + s.period
    elif s.kind == "finite":
        horizon = min(horizon, s.horizon)

    pi = s.pi
    if pi is not None:
        if abs(pi.sum() - 1.0) > PI_TOL or pi.min() < 0:
            raise ValidationError("candidate pi is not a probability distribution")
    else:
        g1 = s.step(1)
        if not is_connected(g1):
            raise ValidationError(
                "step 1 is disconnected and the schedule declares no pi; disconnected "
                "schedules must declare their stationary distribution", step=1)
        pi = chain.degree_stationary(g1).pi
        ref_deg = g1.degree
        for t, g in _first_steps(s, horizon):
            if not is_connected(g):
                raise ValidationError(f"step {t} is disconnected; declare pi on the schedule",
                                      step=t)
            if not np.array_equal(g.degree, ref_deg):
                raise ValidationError(
                    f"degree sequence changes at step {t}; no degree-derived "
                    "common pi exists, declare one on the schedule", step=t)

    for t, g in _first_steps(s, horizon):
        res = chain.pi_step_residual(g, pi)
        if res > PI_TOL:
            raise ValidationError(
                f"pi is not stationary for step {t} (residual {res:.3e})", step=t)
    return chain.StationaryDistribution(pi=pi)


def _first_steps(s: GraphSchedule, horizon: int):
    """(t, step t's graph) for t = 1..horizon in order, without a stored step
    whose graph object an earlier step holds, so a check run on each still
    fails first at the first failing step.  The schedule's runs keep every
    stored graph alive, so identity is a sound key; a generated step is
    always yielded, as an evicted graph's identity may be reused."""
    seen = set()
    for t in range(1, horizon + 1):
        g = s.step(t)
        if s.generator is None:
            if id(g) in seen:
                continue
            seen.add(id(g))
        yield t, g


# ---------------------------------------------------------------------------
# window averages
# ---------------------------------------------------------------------------

@dataclass
class WindowAverage:
    """The average walk matrix over a window of steps, with its spectral gap."""
    matrix: np.ndarray
    ergodic: bool
    gap: float


def window_union_graph(s: GraphSchedule, t1: int, w: int) -> StaticGraph:
    edges = [s.step(t).edges for t in range(t1 + 1, t1 + w + 1)]
    stacked = np.concatenate([e for e in edges if e.size] or [np.empty((0, 2), np.int64)])
    return StaticGraph(s.n, stacked)


def window_ergodic(s: GraphSchedule, t1: int, w: int) -> bool:
    """Connectivity of the union support graph; laziness supplies aperiodicity."""
    return is_connected(window_union_graph(s, t1, w))


def window_average(s: GraphSchedule, t1: int, w: int, pi=None) -> WindowAverage:
    """Entrywise mean of the w lazy matrices after t1, with its gap."""
    if w < 1:
        raise GraphError("window width must be >= 1")
    M = np.zeros((s.n, s.n))
    for t in range(t1 + 1, t1 + w + 1):
        M += chain.lazy_matrix(s.step(t))
    M /= w
    ergodic = window_ergodic(s, t1, w)
    if not ergodic:
        return WindowAverage(matrix=M, ergodic=False, gap=0.0)
    if pi is None:
        pi = s.pi
    if pi is None:
        pi = validate_common_stationary(s, t1 + w).pi
    gap = chain.spectral_gap(M, pi)
    return WindowAverage(matrix=M, ergodic=True, gap=gap)


def min_window_gap(s: GraphSchedule, w: int, horizon: int, pi=None) -> float:
    """min over window starts t1 < horizon of the average-matrix gap; 0 if any
    window is non-ergodic."""
    if w < 1 or horizon < 1:
        raise GraphError("window width and horizon must be >= 1")
    best = np.inf
    for t1 in range(horizon):
        wa = window_average(s, t1, w, pi=pi)
        if not wa.ergodic:
            return 0.0
        best = min(best, wa.gap)
    return float(best)


# ---------------------------------------------------------------------------
# JSON schedule files (bit-exact round trip)
# ---------------------------------------------------------------------------

def _runs_to_doc(runs):
    return [{"repeat": int(rep), "edges": [[int(u), int(v)] for u, v in g.edges]}
            for g, rep in runs]


def _runs_from_doc(n, doc, by_edges):
    """The runs of ``doc``; a graph whose edges ``by_edges`` (edge bytes to graph,
    shared by a file's prefix and cycle) already holds is that one, so its
    step operator is built once."""
    runs = []
    for item in doc:
        g = StaticGraph(n, item["edges"])
        runs.append((by_edges.setdefault(g.edges.tobytes(), g), int(item["repeat"])))
    return runs


def schedule_to_doc(s: GraphSchedule) -> dict:
    doc = {"n": s.n, "mode": s.kind}
    if s.kind == "generator":
        doc["generator"] = {
            "family": s.generator["family"],
            "params": s.generator.get("params", {}),
            "seed": s.generator.get("seed"),
        }
    elif s.kind == "periodic":
        doc["steps"] = _runs_to_doc(s.cycle_runs)
        if s.prefix_runs:
            doc["prefix"] = _runs_to_doc(s.prefix_runs)
    else:
        doc["steps"] = _runs_to_doc(s.prefix_runs)
    if s.pi is not None:
        doc["pi"] = [float(x) for x in s.pi]
    if s.name:
        doc["name"] = s.name
    if s.meta:
        doc["meta"] = s.meta
    return doc


def schedule_from_doc(doc: dict) -> GraphSchedule:
    n = int(doc["n"])
    mode = doc["mode"]
    pi = doc.get("pi")
    name = doc.get("name", "")
    meta = doc.get("meta")
    if mode == "generator":
        s = GraphSchedule(n, generator=doc["generator"], pi=pi, name=name, meta=meta)
        s.step(1)  # a bad family or parameter fails here, on load
        return s
    by_edges = {}
    steps = _runs_from_doc(n, doc.get("steps", []), by_edges)
    if mode == "periodic":
        prefix = _runs_from_doc(n, doc.get("prefix", []), by_edges)
        return GraphSchedule(n, prefix_runs=prefix, cycle_runs=steps, pi=pi,
                             name=name, meta=meta)
    if mode == "finite":
        return GraphSchedule(n, prefix_runs=steps, pi=pi, name=name, meta=meta)
    raise GraphError(f"unknown schedule mode {mode!r}")


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_schedule(s: GraphSchedule, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(schedule_to_doc(s)))
        fh.write("\n")


def load_schedule(path) -> GraphSchedule:
    with open(path) as fh:
        return schedule_from_doc(json.load(fh))


def schedule_hash(s: GraphSchedule) -> str:
    return hashlib.sha256(canonical_json(schedule_to_doc(s)).encode()).hexdigest()[:16]
