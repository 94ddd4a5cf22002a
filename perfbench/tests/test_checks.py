"""Every benchmark check accepts the program's output and rejects a perturbed one.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import csv
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)
sys.path.insert(0, SRC)

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def evidence(tmp_path_factory):
    """One real operation of every kind, run once, with its captured evidence."""
    program = workloads.load_program(SRC)
    out_dir = str(tmp_path_factory.mktemp("reports"))
    found = {}
    for wl in workloads.WORKLOADS.values():
        for op in wl.build(program, 7, out_dir):
            if op.name not in found:
                subject, out = op.run()
                found[op.name] = (op, op.capture(subject, out))
    return found


def test_every_unperturbed_output_passes(evidence):
    assert len(evidence) >= 20
    for op, ev in evidence.values():
        op.check(ev)


def _scale(path, factor):
    def perturb(ev):
        *parents, last = path
        node = ev
        for key in parents:
            node = node[key]
        node[last] = node[last] * factor
    return perturb


def _set(path, value):
    def perturb(ev):
        *parents, last = path
        node = ev
        for key in parents:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value
    return perturb


def _repeat_edge(ev):
    e = ev["steps"][3].copy()
    e[0] = e[1]
    ev["steps"][3] = e


def _drop_edge(ev):
    ev["period"][0] = ev["period"][0][1:]


def _nudge_mass(key):
    def perturb(ev):
        p = np.array(ev[key]["p"] if key == "state" else ev[key][100], dtype=float)
        p[0] += 1e-6
        p[1] -= 1e-6
        if key == "state":
            ev[key]["p"] = p
        else:
            ev[key][100] = p
    return perturb


def _shift_times(amount):
    def perturb(ev):
        ev["mc"]["times"] = np.asarray(ev["mc"]["times"]) + amount
        ev["mc"]["mean"] += amount
    return perturb


def _shift_mean(ev):
    ev["mc"]["mean"] += 10 * ev["mc"]["stderr"]


def _cut_below_exact(ev):
    exact, upper, _ = ev["out"]
    upper[1][2] = exact[1][2] * 0.99


def _nw_above_exact(ev):
    exact, _, lower = ev["out"]
    lower[1][2] = exact[1][2] * 1.01


def _complete_graph_instead(ev):
    u, v = np.triu_indices(int(ev["edges"].max()) + 1, k=1)
    ev["edges"] = np.column_stack([u, v])


PERTURBATIONS = {
    "repeated edge in a generated step": ("eq-mihai", _repeat_edge),
    "eq-mihai Dirichlet form": ("eq-mihai", _scale(["checks", 5, "dirichlet"], 1.001)),
    "eq-mihai variance": ("eq-mihai", _scale(["checks", 9, "var_after"], 1.001)),
    "lemma-imp bound": ("lemma-imp", _scale(["checks", 10, "bound"], 1.01)),
    "lemma-inftoell2 lhs": ("lemma-inftoell2", _set(["checks", 0, "lhs"], lambda x: x + 1e-3)),
    "lemma-inftoell2 verdict": ("lemma-inftoell2", _set(["checks", 0, "ok"], False)),
    "mixing time one late": ("worst-case-n16", _set(["t_mix"], lambda t: t + 1)),
    "mixing time one early": ("worst-case-n32", _set(["t_mix"], lambda t: t - 1)),
    "dynamic hitting lower bound": ("worst-case-n16", _scale(["hits", 1, "lower"], 1.0001)),
    "dynamic hitting status": ("worst-case-n64", _set(["hits", 0, "status"], "exact-to-tolerance")),
    "static hitting residual": ("hit-sparse512", _scale(["hits", 0, "residual_mass"], 0.5)),
    "static hitting lower bound": ("hit-dense512", _scale(["hits", 2, "lower"], 1.0001)),
    "static mixing one late": ("mix-sparse512", _set(["t_mix"], lambda t: t + 1)),
    "static mixing one early": ("mix-dense512", _set(["t_mix"], lambda t: t - 1)),
    "evolved distribution": ("evolve-sparse1024", _nudge_mass("state")),
    "evolved likelihood ratio": ("evolve-dense512", _scale(["state", "rho"], 1.0001)),
    "nohitting step loses an edge": ("hit-nohitting", _drop_edge),
    "nohitting hitting lower bound": ("hit-nohitting", _scale(["out", 0, "lower"], 0.999)),
    "nohitting trace": ("trace-nohitting", _nudge_mass("out")),
    "suite verdict": ("run-suite", _set(["passed"], False)),
    "suite graph": ("run-suite", _complete_graph_instead),
    "exact commute time": ("sandwich-gnp12-0", _scale(["out", 0, 3, 7], 1.0001)),
    "cut sum below exact": ("sandwich-gnp12-0", _cut_below_exact),
    "Nash-Williams above exact": ("sandwich-path12", _nw_above_exact),
    "max commute time": ("max-commute-n96", _scale(["max"], 1.0001)),
    "circulant degree": ("max-commute-n64", _set(["edges"], lambda e: e[1:])),
    "hit trials shifted": ("hit-ctc", _shift_times(20)),
    "hit mean not the mean of its trials": ("hit-ctc", _set(["mc", "mean"], lambda m: m + 0.5)),
    "censored hit trial": ("hit-ctc", _set(["mc", "n_censored"], 1)),
    "cover time below n - 1": ("cover-ctc", _set(["mc", "times"], lambda t: np.r_[126, t[1:]])),
    "cover/hit below n/10": ("cover-ctc", _set(["mc", "mean"], lambda m: m / 2)),
    "complete phase not complete": ("hit-ctc", _set(["steps", 1], lambda e: e[1:])),
    "random regular hit mean": ("hit-rr16", _shift_mean),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_check_rejects_perturbed_output(evidence, case):
    name, perturb = PERTURBATIONS[case]
    op, ev = evidence[name]
    ev = copy.deepcopy(ev)
    perturb(ev)
    with pytest.raises(oracles.CheckError):
        op.check(ev)


def test_suite_check_reads_the_written_csv(evidence, tmp_path):
    op, ev = evidence["run-suite"]
    with open(ev["path"]) as fh:
        lines = fh.readlines()
    header = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
    row = next(csv.reader([lines[header + 1]]))
    row[6] = repr(float(row[6]) + 1.0)
    lines[header + 1] = ",".join(row) + "\n"
    altered = tmp_path / "altered.csv"
    altered.write_text("".join(lines))
    with pytest.raises(oracles.CheckError):
        op.check({**ev, "path": str(altered)})


def test_disconnected_step_is_rejected():
    # two disjoint copies of K5: 4-regular on 10 vertices, not connected
    u, v = np.triu_indices(5, k=1)
    k5 = np.column_stack([u, v])
    oracles.check_regular_steps(10, 4, [np.concatenate([k5, k5 + 5])])
    with pytest.raises(oracles.CheckError):
        oracles.check_regular_steps(10, 4, [np.concatenate([k5, k5 + 5])], need_connected=True)


def test_static_hitting_bound_rejects_a_small_residual():
    n = 12
    i = np.arange(n)
    P = oracles.lazy_matrix(n, np.column_stack([i, (i + 1) % n]))
    est = {"lower": 10.0, "residual_mass": 0.0, "T": 5, "status": "truncated"}
    with pytest.raises(oracles.CheckError):
        oracles.check_static_hitting(P, [(0, 6)], [est])


def test_path_commute_time_is_exact():
    oracles.check_path(12, 4.0 * 11 ** 2)
    with pytest.raises(oracles.CheckError):
        oracles.check_path(12, 4.0 * 11 ** 2 + 1e-3)


def test_tracer_counts_step_matrix_rebuilds():
    """nohitting(16) has period 48 <= the cache cap: one build per distinct step."""
    program = workloads.load_program(SRC)
    tr = tracing.Tracer()
    tr.install()
    tr.active = True
    s = program.constructions.build_nohitting(16)
    est = program.walks.exact_hitting(s, 0, set(range(12, 16)))
    tr.active = False
    m = tr.metrics()
    assert m["schedule.step_matrix.calls"] == est.T
    assert m["chain.lazy_matrix.calls"] == 48
    assert m["schedule.step_matrix.hit_ratio"] == 1.0 - 48 / est.T
    assert m["walks.propagation.column_steps"] == est.T
    assert m["walks.exact_hitting_batch.self_ms"] > 0
    assert tr.missing == []


def test_tracer_reports_a_deleted_function_missing():
    program = workloads.load_program(SRC)
    del program.schedule.GraphSchedule.step_matrix
    tr = tracing.Tracer()
    tr.install()
    assert "schedule.step_matrix" in tr.missing
    m = tr.metrics()
    assert m["schedule.step_matrix.calls"] == 0
    workloads.load_program(SRC)  # leave a clean copy for later tests
