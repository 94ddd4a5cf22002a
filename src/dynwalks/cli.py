"""Command-line interface.

Verbs: gen, mix, hit, cover, verify <inequality-id>, commute, suite <name>.
CSV reports land in --out or $DYNWALKS_OUTDIR (default ./reports); exit
status is 0 only if every checked bound passed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import commute as commute_mod
from . import constructions, graphs, schedule, walks
from .reporting import (
    BoundReport,
    default_out_dir,
    summarize,
    write_report_csv,
)
from .suites import (
    INEQUALITY_TO_SUITE,
    KNOBS,
    SUITES,
    ExperimentConfig,
    run_suite,
    suites_reading,
)


def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be a positive int; got {val}")
    return val


def _positive_float(text: str) -> float:
    val = float(text)
    if not val > 0:
        raise argparse.ArgumentTypeError(f"must be > 0; got {val}")
    return val


def _read_by(knob: str) -> str:
    return f"read by {', '.join(suites_reading(knob))}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dynwalks")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="build a construction and write its schedule file")
    g.add_argument("construction", choices=[
        "expander_matching", "random_regular", "complete_then_cycle", "nomixing",
        "nohitting", "nohitting_doubled", "torus_schedule", "circulant", "barbell"])
    g.add_argument("--d", type=int, help="degree (random_regular)")
    g.add_argument("--t", type=int, help="step budget (nomixing)")
    g.add_argument("--c", type=float, help="complete-phase constant")
    g.add_argument("--dim", type=int, help="torus dimension")
    g.add_argument("--side", type=int, help="torus side")
    g.add_argument("--rho", type=int, help="circulant connectivity parameter")
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output schedule file")

    m = sub.add_parser("mix", help="exact l2 mixing time of a schedule")
    m.add_argument("--schedule", help="schedule JSON file")
    m.add_argument("--threshold", type=float, default=1.0 / 3.0)
    m.add_argument("--horizon", type=int)
    m.add_argument("--out", help="output report file")

    hp = sub.add_parser("hit", help="exact expected hitting time (absorbing propagation)")
    hp.add_argument("--schedule", help="schedule JSON file")
    hp.add_argument("--u", type=int, required=True)
    hp.add_argument("--v", type=int, required=True)
    hp.add_argument("--tmax", type=int)
    hp.add_argument("--eps", type=_positive_float)
    hp.add_argument("--out", help="output report file")

    c = sub.add_parser("cover", help="Monte Carlo cover time")
    c.add_argument("--schedule", help="schedule JSON file")
    c.add_argument("--start", type=int, default=0)
    c.add_argument("--horizon", type=int, default=1_000_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trials", type=_positive_int)

    v = sub.add_parser("verify", help="verify one named inequality")
    v.add_argument("inequality", choices=sorted(INEQUALITY_TO_SUITE))
    v.add_argument("--seeds", type=_positive_int,
                   help=f"number of seeded instances ({_read_by('seeds')})")
    v.add_argument("--out", help="output directory")

    cm = sub.add_parser("commute", help="commute-time bounds table for a static graph")
    cm.add_argument("--graph", help="graph text file ('n m' then edge lines)")
    cm.add_argument("--family", default="gnp_connected")
    cm.add_argument("--n", type=int)
    cm.add_argument("--p", type=float, default=0.5)
    cm.add_argument("--rho", type=int)
    cm.add_argument("--seed", type=int, default=0)
    cm.add_argument("--s", type=int)
    cm.add_argument("--t", type=int)
    cm.add_argument("--out", help="output report file")

    st = sub.add_parser("suite", help="run a named verification suite (or 'all')")
    st.add_argument("name", choices=sorted(SUITES) + ["all"])
    st.add_argument("--sizes", type=int, nargs="+",
                    help=f"instance sizes ({_read_by('sizes')})")
    st.add_argument("--seeds", type=_positive_int,
                    help=f"number of seeded instances ({_read_by('seeds')})")
    st.add_argument("--trials", type=_positive_int,
                    help=f"Monte Carlo trials ({_read_by('trials')})")
    st.add_argument("--eps", type=_positive_float,
                    help=f"hitting tolerance ({_read_by('eps')})")
    st.add_argument("--out", help="output directory")
    return ap


def _load_schedule_arg(args) -> schedule.GraphSchedule:
    if not args.schedule:
        raise SystemExit("--schedule is required for this command")
    return schedule.load_schedule(args.schedule)


def _cmd_gen(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    for key in ("d", "t", "c", "dim", "side", "rho"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    spec = constructions.ConstructionSpec(name=args.construction, params=params,
                                          seed=args.seed)
    s = constructions.build(spec)
    out = args.out or f"{args.construction}.json"
    schedule.save_schedule(s, out)
    print(f"{out} hash={schedule.schedule_hash(s)} n={s.n} kind={s.kind}")
    return 0


def _cmd_mix(args) -> int:
    s = _load_schedule_arg(args)
    pi = schedule.validate_common_stationary(s, horizon=args.horizon or 100).pi
    t = walks.measure_mixing(s, pi, threshold=args.threshold,
                             horizon=args.horizon)
    print(f"t_mix={t}")
    if args.out:
        rep = BoundReport(suite="cli", inequality_id="mix", instance=args.schedule,
                          lhs=float(t), rhs=float(t), tolerance=0.0,
                          provenance="DERIVED", n=s.n,
                          schedule_hash=schedule.schedule_hash(s))
        write_report_csv(args.out, [rep])
    return 0


def _cmd_hit(args) -> int:
    s = _load_schedule_arg(args)
    est = walks.exact_hitting(s, args.u, args.v, t_max=args.tmax,
                              eps=args.eps or 1e-9)
    print(f"hit({args.u}->{args.v}) lower={est.lower:.6f} residual={est.residual_mass:.3e} "
          f"T={est.T} status={est.status}")
    if args.out:
        rep = BoundReport(suite="cli", inequality_id="hit",
                          instance=f"u={args.u} v={args.v}", lhs=est.lower,
                          rhs=est.lower, tolerance=0.0, provenance="DERIVED",
                          n=s.n, schedule_hash=schedule.schedule_hash(s),
                          status=est.status,
                          extra={"residual": est.residual_mass, "T": est.T})
        write_report_csv(args.out, [rep])
    return 0


def _cmd_cover(args) -> int:
    s = _load_schedule_arg(args)
    mc = walks.monte_carlo(s, args.start, seed=args.seed,
                           trials=args.trials or 100, stop=("cover",),
                           horizon=args.horizon)
    print(f"cover mean={mc.mean:.2f} stderr={mc.stderr:.2f} "
          f"censored={mc.n_censored}/{mc.trials} seed={mc.seed}")
    return 0


def _cmd_verify(args) -> int:
    cfg = ExperimentConfig(
        suite=INEQUALITY_TO_SUITE[args.inequality],
        seeds=list(range(args.seeds)) if args.seeds is not None else None,
        out=args.out)
    reports, path, ok = run_suite(cfg)
    digest, _ = summarize([path])
    print(digest)
    print(f"report: {path}")
    return 0 if ok else 1


def _cmd_commute(args) -> int:
    if args.graph:
        g = graphs.read_graph_text(args.graph)
        gid = os.path.basename(args.graph)
    else:
        if args.n is None:
            raise SystemExit("--n is required without --graph")
        params = {"n": args.n}
        if args.family == "gnp_connected":
            params["p"] = args.p
        if args.family == "circulant":
            params["rho"] = args.rho or 2
        g = graphs.generate(args.family, seed=args.seed, **params)
        gid = f"{args.family}-n{args.n}-seed{args.seed}"
    pairs = ([(args.s, args.t)] if args.s is not None and args.t is not None
             else [(u, v) for u in range(g.n) for v in range(u + 1, g.n)])
    rows = []
    conn_bound = commute_mod.connectivity_bound(g)
    prof = commute_mod.profile_bound(g) if g.is_regular() and g.n <= 20 else None
    for s, t in pairs:
        exact = commute_mod.exact_commute(g, s, t)
        _, bounds = commute_mod.cut_sum_upper(g, s, t)
        nw = commute_mod.nash_williams_lower(
            g, s, t, commute_mod.distance_layer_cutsets(g, s, t))
        rows.append(BoundReport(
            suite="cli-commute", inequality_id="cutsum-sandwich",
            instance=f"{gid} s={s} t={t}",
            lhs=max(nw.flow - exact, exact - bounds.flow), rhs=0.0,
            tolerance=1e-9, provenance="DERIVED", n=g.n, seed=args.seed,
            extra={"exact": exact, "nw_lower_flow": nw.flow,
                   "cutsum_flow": bounds.flow, "cutsum_2m": bounds.literal_2m,
                   "profile_bound": prof, "connectivity_bound": conn_bound,
                   "tight_ratio": bounds.flow / exact}))
    out = args.out or os.path.join(default_out_dir(), "commute.csv")
    write_report_csv(out, rows)
    ok = all(r.passed for r in rows)
    print(f"{len(rows)} pairs -> {out} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def _cmd_suite(args) -> int:
    names = sorted(SUITES) if args.name == "all" else [args.name]
    paths = []
    ok = True
    for name in names:
        cfg = ExperimentConfig(
            suite=name,
            sizes=args.sizes,
            seeds=list(range(args.seeds)) if args.seeds is not None else None,
            trials=args.trials, eps=args.eps, out=args.out)
        _, path, passed = run_suite(cfg)
        paths.append(path)
        ok = ok and passed
    digest, _ = summarize(paths)
    print(digest)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command in ("suite", "verify"):
        if args.command == "verify":
            target, names = args.inequality, [INEQUALITY_TO_SUITE[args.inequality]]
        else:
            target = args.name
            names = sorted(SUITES) if target == "all" else [target]
        for knob in KNOBS:
            readers = suites_reading(knob)
            if vars(args).get(knob) is not None and any(n not in readers for n in names):
                ap.error(f"{args.command} {target}: --{knob} is read only by {', '.join(readers)}")
    handlers = {
        "gen": _cmd_gen, "mix": _cmd_mix, "hit": _cmd_hit, "cover": _cmd_cover,
        "verify": _cmd_verify, "commute": _cmd_commute, "suite": _cmd_suite,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
