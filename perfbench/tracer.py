"""Layer tracing from outside the program.

The tracer replaces each layer's public functions with timing wrappers at
every name a dynwalks module looks them up by: module globals (so
``constructions.random_regular_graph`` is wrapped as well as
``graphs.random_regular_graph``), class attributes such as
``GraphSchedule.step_matrix``, and the entries of
``constructions.GENERATOR_FAMILIES``.  No file of the program changes.

Each call is a span: name, start, end and the span that caused it.  A span's
self time is its duration minus the time of the spans it caused.  Spans are
kept in memory and written out once, at the end of the run.  A function that
no longer exists is reported missing, not treated as an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PROPAGATION = ("evolve", "evolve_trace", "exact_hitting_batch", "measure_mixing")
VERIFIERS = ("variance_decay_checks", "ratio_deviation_checks", "verify_midpoint_bound",
             "window_average_decay_check")

# (layer name, module, attribute path) of every wrapped callable
TARGETS = [
    ("graphs.random_regular_graph", "graphs", "random_regular_graph"),
    ("graphs.StaticGraph", "graphs", "StaticGraph.__init__"),
    ("graphs.is_connected", "graphs", "is_connected"),
    ("graphs.bfs_distances", "graphs", "bfs_distances"),
    ("schedule.step", "schedule", "GraphSchedule.step"),
    ("schedule.step_matrix", "schedule", "GraphSchedule.step_matrix"),
    ("schedule.validate_common_stationary", "schedule", "validate_common_stationary"),
    ("chain.lazy_matrix", "chain", "lazy_matrix"),
    ("chain.degree_stationary", "chain", "degree_stationary"),
    *[(f"walks.{f}", "walks", f) for f in PROPAGATION],
    *[(f"walks.{f}", "walks", f) for f in VERIFIERS],
    ("walks.monte_carlo", "walks", "monte_carlo"),
    ("commute.hitting_times_to", "commute", "hitting_times_to"),
    ("commute.solve_voltage", "commute", "solve_voltage"),
    ("commute.cut_sum_upper", "commute", "cut_sum_upper"),
    ("commute.nash_williams_lower", "commute", "nash_williams_lower"),
    ("commute.distance_layer_cutsets", "commute", "distance_layer_cutsets"),
    ("commute.commute_matrix", "commute", "commute_matrix"),
    ("suites.run_suite", "suites", "run_suite"),
    ("reporting.write_report_csv", "reporting", "write_report_csv"),
]
GENERATOR_STEP = "constructions.step"

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, misses]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.stack: list[list] = []        # [name, span id, start, child_s, child names]
        self.spans: list[tuple] = []       # (id, parent id, name, start, end)
        self.dropped = 0
        self._next_id = 0

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the dynwalks modules imported now."""
        prefix = "dynwalks."
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "dynwalks" or k.startswith(prefix))]
        for name, mod, path in TARGETS:
            home = sys.modules.get(prefix + mod)
            owner, attr = home, path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(home, cls, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner is not home:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        families = getattr(sys.modules.get(prefix + "constructions"), "GENERATOR_FAMILIES", None)
        if families is None:
            self.missing.append(GENERATOR_STEP)
        else:
            for key, fn in list(families.items()):
                families[key] = self._wrap(GENERATOR_STEP, fn)

    def _wrap(self, name, fn):
        self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, self._next_id, time.perf_counter(), 0.0, None]
            self._next_id += 1
            self.stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self._close(frame, end)
            if observe is not None:
                observe(self, args, out, frame)
            return out

        return wrapper

    def _close(self, frame, end) -> None:
        name, span_id, start, child_s, _ = frame
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent[0] != name:
            st[2] += dur
        if parent is not None:
            parent[3] += dur
            if parent[4] is None:
                parent[4] = set()
            parent[4].add(name)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, -1 if parent is None else parent[1], name, start, end))
        else:
            self.dropped += 1

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named <module>.<function>.<measure>."""
        st = self.stats
        get = lambda name: st.get(name, [0, 0.0, 0.0, 0])  # noqa: E731
        ms = lambda name: get(name)[1] * 1e3  # noqa: E731
        out: dict[str, float] = {}
        for name in ("graphs.random_regular_graph", "graphs.StaticGraph", GENERATOR_STEP,
                     "graphs.bfs_distances", "graphs.is_connected", "commute.hitting_times_to",
                     "commute.solve_voltage", "reporting.write_report_csv"):
            out[f"{name}.calls"] = get(name)[0]
            out[f"{name}.self_ms"] = ms(name)
        for name in ("schedule.step", "schedule.step_matrix"):
            calls, _, _, misses = get(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = ms(name)
            out[f"{name}.hit_ratio"] = 1.0 - misses / calls if calls else 0.0
        out["chain.lazy_matrix.calls"] = get("chain.lazy_matrix")[0]
        out["chain.lazy_matrix.self_ms"] = ms("chain.lazy_matrix")
        out["chain.lazy_matrix.mb_built"] = self.counters.get("mb_built", 0.0)
        for f in PROPAGATION:
            out[f"walks.{f}.self_ms"] = ms(f"walks.{f}")
        steps = self.counters.get("column_steps", 0)
        busy = sum(get(f"walks.{f}")[2] for f in PROPAGATION)
        out["walks.propagation.column_steps"] = steps
        out["walks.propagation.column_steps_per_s"] = steps / busy if busy else 0.0
        out["walks.verifiers.self_ms"] = sum(ms(f"walks.{f}") for f in VERIFIERS)
        trial_steps = self.counters.get("trial_steps", 0)
        mc_busy = get("walks.monte_carlo")[2]
        out["walks.monte_carlo.self_ms"] = ms("walks.monte_carlo")
        out["walks.monte_carlo.trial_steps"] = trial_steps
        out["walks.monte_carlo.trial_steps_per_s"] = trial_steps / mc_busy if mc_busy else 0.0
        for name in ("commute.cut_sum_upper", "commute.nash_williams_lower",
                     "commute.distance_layer_cutsets", "commute.commute_matrix",
                     "schedule.validate_common_stationary", "chain.degree_stationary",
                     "suites.run_suite"):
            out[f"{name}.self_ms"] = ms(name)
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = {
            **extra,
            "missing": self.missing,
            "dropped_spans": self.dropped,
            "layers": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                       for k, v in sorted(self.stats.items())},
            "counters": self.counters,
            "span_columns": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# Counts read from a call's arguments and outputs, at the boundary where the
# work happens.  A step served without building anything is a cache hit.

def _miss_if(child):
    def observe(tr, args, out, frame):
        if frame[4] is not None and child in frame[4]:
            tr.stats[frame[0]][3] += 1
    return observe


def _column_steps(columns):
    def observe(tr, args, out, frame):
        tr.count("column_steps", columns(args, out))
    return observe


def _lazy_matrix(tr, args, out, frame):
    tr.count("mb_built", args[0].n ** 2 * 8 / 1e6)


def _monte_carlo(tr, args, out, frame):
    tr.count("trial_steps", int(out.times.sum()))


OBSERVERS = {
    "schedule.step": _miss_if(GENERATOR_STEP),
    "schedule.step_matrix": _miss_if("chain.lazy_matrix"),
    "chain.lazy_matrix": _lazy_matrix,
    "walks.monte_carlo": _monte_carlo,
    "walks.evolve": _column_steps(lambda a, out: out.t),
    "walks.evolve_trace": _column_steps(lambda a, out: len(out) - 1),
    "walks.exact_hitting_batch": _column_steps(lambda a, out: out[0].T * len(out) if out else 0),
    "walks.measure_mixing": _column_steps(lambda a, out: out * a[0].n),
}
