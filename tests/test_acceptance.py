"""Acceptance gate: one test per criterion, at the stated size and tolerance.

Each test runs the corresponding verification suite (the same code path the
CLI uses), asserts the criterion, and prints one pass/fail line.  Reports
land in the pytest tmp area; nothing here depends on prior runs.
"""

import time

from dynwalks.reporting import csv_body
from dynwalks.suites import SUITES, ExperimentConfig, run_suite


def _run(tmp_path, suite, **kw):
    cfg = ExperimentConfig(suite=suite, out=str(tmp_path), **kw)
    t0 = time.time()
    reports, path, ok = run_suite(cfg)
    return reports, ok, time.time() - t0


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_eq_mihai_decay(tmp_path):
    reports, ok, dt = _run(tmp_path, "eq-mihai")
    assert len(reports) == 100
    violations = sum(r.extra["violations"] for r in reports)
    ok = ok and violations == 0 and dt < 120
    _line(1, ok, f"100 schedules x 200 steps, {violations} violations, {dt:.0f}s (<120s)")


def test_criterion_02_deviation_bound(tmp_path):
    reports, ok, dt = _run(tmp_path, "lemma-imp")
    assert len(reports) == 100
    triggered = sum(r.extra["triggered"] for r in reports)
    violations = sum(r.extra["violations"] for r in reports)
    ok = ok and violations == 0 and triggered > 0
    _line(2, ok, f"{triggered} triggered instances, {violations} violations")


def test_criterion_03_window_average_decay(tmp_path):
    reports, ok, _ = _run(tmp_path, "thm-average")
    main = [r for r in reports if r.inequality_id == "thm-average"]
    norm = [r for r in reports if r.inequality_id == "thm-average-normalized"]
    assert len(main) == len(norm) == 100
    worst = min(r.margin for r in main)
    _line(3, ok, f"100 windowed schedules, worst margin {worst:.3e}; "
                 f"gap-normalized form holds on all 100")


def test_criterion_04_midpoint_bound(tmp_path):
    reports, ok, _ = _run(tmp_path, "lemma-inftoell2")
    assert len(reports) == 500
    alt_bad = sum(not r.extra["alt_split_ok"] for r in reports)
    _line(4, ok, f"500 exact instances, 0 violations of the adjoint split "
                 f"({alt_bad} alternative-split discrepancies flagged)")


def test_criterion_05_cheeger_and_ballsize(tmp_path):
    reports, ok, _ = _run(tmp_path, "cheeger-ballsize")
    canonical = sum(r.seed is None for r in reports) // 3
    randoms = sum(r.seed is not None for r in reports) // 3
    assert randoms == 500
    _line(5, ok, f"{canonical} canonical + {randoms} random graphs, zero violations")


def test_criterion_06_worst_case_scaling(tmp_path):
    reports, ok, dt = _run(tmp_path, "worst-case")
    ratios = {r.instance: r.lhs for r in reports if "ratio" in r.inequality_id}
    mc = next(r for r in reports if r.inequality_id == "worsthit-mc-cross")
    ok = ok and dt < 600 and all(v <= 5.0 for v in ratios.values())
    _line(6, ok, f"ratios {({k: round(v, 2) for k, v in ratios.items()})}, "
                 f"mc |diff|={mc.lhs:.2f} <= 3se={mc.rhs:.2f}, {dt:.0f}s (<600s)")


def test_criterion_07_torus_scaling(tmp_path):
    reports, ok, _ = _run(tmp_path, "torus-scaling")
    bands = {r.inequality_id: r.lhs for r in reports if r.inequality_id.endswith("band")}
    _line(7, ok, f"bands {({k: round(v, 3) for k, v in bands.items()})} (<= 2x)")


def test_criterion_08_nohitting(tmp_path):
    reports, ok, _ = _run(tmp_path, "counterexamples")
    by_id = {}
    for r in reports:
        by_id.setdefault(r.inequality_id, []).append(r)
    a = by_id["nohitting-pi-certified"][0]
    b = by_id["nohitting-ceiling-min"][0]
    growth = [r.rhs for r in by_id["nohitting-hit-growth"]]
    ok = ok and a.lhs <= 1e-10 and b.lhs <= 2.0 ** -6 and all(g >= 2 for g in growth)
    _line(8, ok, f"pi residual {a.lhs:.1e}, ceiling min {b.lhs:.1e} <= 2^-6, "
                 f"hit growth {[round(g, 1) for g in growth]}, "
                 f"ergodic widths verified (3n+2, 4n) with non-ergodic <=3n window")


def test_criterion_09_nomixing(tmp_path):
    reports, ok, _ = _run(tmp_path, "nomixing")
    growth = [r for r in reports if r.inequality_id == "nomixing-growth"]
    final = next(r for r in reports if r.inequality_id == "nomixing-final-mass")
    c = final.extra["measured_c"]
    ok = ok and len(growth) == 3 and c > 0
    _line(9, ok, f"n=1000, (10/8)^i/n bound holds for i=1..3, measured c={c:.3f} > 0")


def test_criterion_10_commute_sandwich(tmp_path):
    reports, ok, _ = _run(tmp_path, "commute-bounds")
    uppers = [r for r in reports if r.inequality_id == "cutsum-upper"]
    lowers = [r for r in reports if r.inequality_id == "nw-lower"]
    paths = [r for r in reports if r.inequality_id.startswith("path-tightness")]
    assert len(uppers) == len(lowers) == 200
    assert len(paths) == 20  # n = 3..12, exact and cut-sum
    _line(10, ok, f"200 graphs exhaustive pairs sandwich + path tightness 4(n-1)^2")


def test_criterion_11_connected_labelling(tmp_path):
    reports, ok, _ = _run(tmp_path, "connected-labelling")
    missing = sum(r.lhs for r in reports)
    ok = ok and missing == 0
    _line(11, ok, f"{len(reports)} graphs, all ordered (s,t) pairs have orderings")


def test_criterion_12_eq_interesting(tmp_path):
    reports, ok, _ = _run(tmp_path, "eq-interesting")
    main = [r for r in reports if "prism" in r.instance]
    vals = {r.instance: (round(r.lhs, 2), round(r.rhs, 2)) for r in main}
    _line(12, ok, f"eigen_sum <= profile_bound at {vals}")


def test_criterion_13_circulant(tmp_path):
    reports, ok, _ = _run(tmp_path, "circulant-connectivity")
    bands = [r.lhs for r in reports if r.inequality_id == "optimalconn-band"]
    ratio_rows = [r for r in reports if r.inequality_id == "connectivity-bound-ratio"]
    worst = max(r.lhs / r.rhs for r in ratio_rows)
    ok = ok and all(b <= 4 for b in bands)
    _line(13, ok, f"commute/(n^2/rho) bands {[round(b, 2) for b in bands]} (<=4), "
                  f"connectivity-bound ratio at {worst:.0%} of pinned C*log2(rho)")


def test_criterion_14_cover_hit_gap(tmp_path):
    reports, ok, _ = _run(tmp_path, "cover-hit-gap")
    row = next(r for r in reports if r.inequality_id == "coverhit-ratio")
    _line(14, ok, f"n=128, 200 trials: cover/hit = {row.rhs / row.lhs * 12.8:.1f} >= 12.8, "
                  f"0 censored trials")


REDUCED = {
    "eq-mihai": dict(seeds=[0, 1]),
    "lemma-imp": dict(seeds=[0, 1]),
    "thm-average": dict(seeds=[0, 45, 75, 95]),
    "lemma-inftoell2": dict(seeds=[0, 1, 2]),
    "cheeger-ballsize": dict(seeds=[0, 1]),
    "worst-case": dict(sizes=[16], trials=200),
    "torus-scaling": dict(sizes=[4, 8]),
    "counterexamples": dict(sizes=[8, 12]),
    "nomixing": dict(sizes=[200]),
    "commute-bounds": dict(seeds=list(range(10)), sizes=[3, 4, 5]),
    "connected-labelling": dict(),
    "eq-interesting": dict(),
    "circulant-connectivity": dict(sizes=[32, 64]),
    "cover-hit-gap": dict(sizes=[64], trials=50),
}


def test_criterion_15_determinism(tmp_path):
    assert set(REDUCED) == set(SUITES)
    mismatched = []
    for name, kw in REDUCED.items():
        pa = str(tmp_path / "a")
        pb = str(tmp_path / "b")
        _, path_a, _ = run_suite(ExperimentConfig(suite=name, out=pa, **kw))
        _, path_b, _ = run_suite(ExperimentConfig(suite=name, out=pb, **kw))
        if csv_body(path_a) != csv_body(path_b):
            mismatched.append(name)
    _line(15, not mismatched,
          f"all {len(REDUCED)} suites re-run byte-identical (reduced configs)"
          + (f"; MISMATCH: {mismatched}" if mismatched else ""))
