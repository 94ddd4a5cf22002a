"""Command-line interface.

Verbs: gen, mix, hit, cover, verify <inequality-id>, commute, suite <name>.
CSV reports land in --out or $DYNWALKS_OUTDIR (default ./reports).  Exit
status 0 means every checked bound passed and 1 that one failed; a usage
error (an unread or out-of-range flag, a vertex outside the graph, a missing
or malformed input file, a disconnected graph for `commute`, a schedule with
no common pi for `mix`) exits 2 with a usage line before any file is written;
a `hit` or `mix` run that its horizon cuts short is flagged truncated.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from . import commute as commute_mod
from . import constructions, graphs, schedule, walks
from .errors import GenerationError, GraphError, TruncationError, ValidationError
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
    check_config,
    readers,
    run_suite,
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


def _nonnegative_int(text: str) -> int:
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative int; got {val}")
    return val


# flag -> (type, meaning) of the parameters of `gen`'s builders and `commute`'s
# graph families; a verb offers the ones its callees' signatures name
FLAGS = {
    "n": (int, "vertex count"), "d": (int, "degree"), "t": (int, "step budget"),
    "c": (float, "complete-phase constant"), "dim": (int, "torus dimension"),
    "side": (int, "torus side"), "rho": (int, "circulant connectivity parameter"),
    "p": (float, "edge probability"), "seed": (_nonnegative_int, "generator seed"),
}
DEFAULT_COMMUTE_FAMILY = "gnp_connected"


def _read_by(registry: dict, knob: str) -> str:
    return f"read by {', '.join(readers(registry, knob))}"


def _offered(registry: dict) -> list[str]:
    """The FLAGS that some function in ``registry`` reads."""
    return [flag for flag in FLAGS if readers(registry, flag)]


def _add_flags(p: argparse.ArgumentParser, registry: dict) -> None:
    for flag in _offered(registry):
        kind, meaning = FLAGS[flag]
        p.add_argument(f"--{flag}", type=kind,
                       help=f"{meaning} ({_read_by(registry, flag)})")


def _read_flags(ap, args, target: str, registry: dict, names, flags) -> dict:
    """The flags set among ``flags``, as keyword arguments for each of
    ``registry[name]``.  Exits with status 2 before anything is written when
    a set flag is not a parameter of every such function, or when one of
    them has a required parameter left unset."""
    kwargs = {f: vars(args)[f] for f in flags if vars(args).get(f) is not None}
    for flag in kwargs:
        reading = readers(registry, flag)
        if any(name not in reading for name in names):
            ap.error(f"{target}: --{flag} is read only by {', '.join(reading)}")
    for name in names:
        missing = [p.name for p in inspect.signature(registry[name]).parameters.values()
                   if p.default is p.empty and p.name not in kwargs]
        if missing:
            ap.error(f"{target}: needs --{', --'.join(missing)}")
    return kwargs


def _build(ap, target: str, fn, kwargs: dict):
    """``fn(**kwargs)``; an input it rejects exits with status 2."""
    try:
        return fn(**kwargs)
    except (GraphError, ValidationError) as err:
        ap.error(f"{target}: {err}")


def _read_file(ap, target: str, read, path: str):
    """``read(path)``; a missing, unreadable or malformed file exits with status 2."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError, GenerationError) as err:
        ap.error(f"{target}: cannot read {path}: {err}")


def _check_vertices(ap, target: str, flags: dict, n: int) -> None:
    """Exit with status 2 unless the values of ``flags`` are distinct vertices below n."""
    vals = list(flags.values())
    if not all(0 <= v < n for v in vals) or len(set(vals)) < len(vals):
        what = "two distinct vertices" if len(vals) > 1 else "a vertex"
        ap.error(f"{target}: --{' and --'.join(flags)} must be {what} below {n}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dynwalks")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="build a construction and write its schedule file")
    g.add_argument("construction", choices=list(constructions.BUILDERS))
    _add_flags(g, constructions.BUILDERS)
    g.add_argument("--out", help="output schedule file")

    m = sub.add_parser("mix", help="exact l2 mixing time of a schedule")
    m.add_argument("--schedule", help="schedule JSON file")
    m.add_argument("--threshold", type=_positive_float, default=1.0 / 3.0)
    m.add_argument("--horizon", type=_positive_int)
    m.add_argument("--out", help="output report file")

    hp = sub.add_parser("hit", help="exact expected hitting time (absorbing propagation)")
    hp.add_argument("--schedule", help="schedule JSON file")
    hp.add_argument("--u", type=int, required=True)
    hp.add_argument("--v", type=int, required=True)
    hp.add_argument("--tmax", type=_positive_int)
    hp.add_argument("--eps", type=_positive_float)
    hp.add_argument("--out", help="output report file")

    c = sub.add_parser("cover", help="Monte Carlo cover time")
    c.add_argument("--schedule", help="schedule JSON file")
    c.add_argument("--start", type=int, default=0)
    c.add_argument("--horizon", type=_positive_int, default=1_000_000)
    c.add_argument("--seed", type=_nonnegative_int, default=0)
    c.add_argument("--trials", type=_positive_int)

    v = sub.add_parser("verify", help="verify one named inequality")
    v.add_argument("inequality", choices=sorted(INEQUALITY_TO_SUITE))
    v.add_argument("--seeds", type=_positive_int,
                   help=f"number of seeded instances ({_read_by(SUITES, 'seeds')})")
    v.add_argument("--out", help="output directory")

    cm = sub.add_parser("commute", help="commute-time bounds table for a static graph")
    cm.add_argument("--graph", help="graph text file ('n m' then edge lines); "
                    "takes no family flag")
    cm.add_argument("--family", choices=list(graphs.FAMILIES),
                    help=f"graph family (default {DEFAULT_COMMUTE_FAMILY})")
    _add_flags(cm, graphs.FAMILIES)
    cm.add_argument("--s", type=int)
    cm.add_argument("--t", type=int)
    cm.add_argument("--out", help="output report file")

    st = sub.add_parser("suite", help="run a named verification suite (or 'all')")
    st.add_argument("name", choices=sorted(SUITES) + ["all"])
    st.add_argument("--sizes", type=_positive_int, nargs="+",
                    help=f"instance sizes ({_read_by(SUITES, 'sizes')})")
    st.add_argument("--seeds", type=_positive_int,
                    help=f"number of seeded instances ({_read_by(SUITES, 'seeds')})")
    st.add_argument("--trials", type=_positive_int,
                    help=f"Monte Carlo trials ({_read_by(SUITES, 'trials')})")
    st.add_argument("--eps", type=_positive_float,
                    help=f"hitting tolerance ({_read_by(SUITES, 'eps')})")
    st.add_argument("--out", help="output directory")
    return ap


def _cmd_gen(args, s: schedule.GraphSchedule) -> int:
    out = args.out or f"{args.construction}.json"
    schedule.save_schedule(s, out)
    print(f"{out} hash={schedule.schedule_hash(s)} n={s.n} kind={s.kind}")
    return 0


def _cmd_mix(args, s: schedule.GraphSchedule, pi) -> int:
    status, extra = "ok", {}
    try:
        t = walks.measure_mixing(s, pi, threshold=args.threshold, horizon=args.horizon)
        print(f"t_mix={t}")
    except TruncationError as err:  # not mixed by --horizon: flagged, as `hit` does
        t, status, extra = err.t, "truncated", {"worst_sq_norm": err.value}
        print(f"t_mix>{t} worst_sq_norm={err.value:.3e}")
    if args.out:
        rep = BoundReport(suite="cli", inequality_id="mix", instance=args.schedule,
                          lhs=float(t), rhs=float(t), tolerance=0.0,
                          provenance="DERIVED", n=s.n,
                          schedule_hash=schedule.schedule_hash(s), status=status,
                          extra=extra)
        write_report_csv(args.out, [rep])
    return 0


def _cmd_hit(args, s: schedule.GraphSchedule) -> int:
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


def _cmd_cover(args, s: schedule.GraphSchedule) -> int:
    mc = walks.monte_carlo(s, args.start, seed=args.seed,
                           trials=args.trials or 100, stop=("cover",),
                           horizon=args.horizon)
    print(f"cover mean={mc.mean:.2f} stderr={mc.stderr:.2f} "
          f"censored={mc.n_censored}/{mc.trials} seed={mc.seed}")
    return 0


def _cmd_verify(cfg: ExperimentConfig) -> int:
    reports, path, ok = run_suite(cfg)
    digest, _ = summarize(reports)
    print(digest)
    print(f"report: {path}")
    return 0 if ok else 1


def _cmd_commute(args, g: graphs.StaticGraph, kwargs) -> int:
    seed = None
    if args.graph:
        gid = os.path.basename(args.graph)
    else:
        params = inspect.signature(graphs.FAMILIES[args.family]).parameters
        seed = kwargs.get("seed", params["seed"].default) if "seed" in params else None
        gid = f"{args.family}-n{g.n}" + ("" if seed is None else f"-seed{seed}")
    pairs = ([(args.s, args.t)] if args.s is not None
             else [(u, v) for u in range(g.n) for v in range(u + 1, g.n)])
    rows = []
    conn_bound = commute_mod.connectivity_bound(g)
    prof = commute_mod.profile_bound(g) if g.is_regular() and g.n <= 20 else None
    lower = {s: commute_mod.nash_williams_from(g, s) for s in sorted({s for s, _ in pairs})}
    for s, t in pairs:
        exact = commute_mod.exact_commute(g, s, t)
        _, bounds = commute_mod.cut_sum_upper(g, s, t)
        nw = float(lower[s][t])
        rows.append(BoundReport(
            suite="cli-commute", inequality_id="cutsum-sandwich",
            instance=f"{gid} s={s} t={t}",
            lhs=max(nw - exact, exact - bounds.flow), rhs=0.0,
            tolerance=1e-9, provenance="DERIVED", n=g.n, seed=seed,
            extra={"exact": exact, "nw_lower_flow": nw,
                   "cutsum_flow": bounds.flow, "cutsum_2m": bounds.literal_2m,
                   "profile_bound": prof, "connectivity_bound": conn_bound,
                   "tight_ratio": bounds.flow / exact}))
    out = args.out or os.path.join(default_out_dir(), "commute.csv")
    write_report_csv(out, rows)
    ok = all(r.passed for r in rows)
    print(f"{len(rows)} pairs -> {out} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def _cmd_suite(cfgs: list[ExperimentConfig]) -> int:
    reports = []
    for cfg in cfgs:
        reports += run_suite(cfg)[0]
    digest, ok = summarize(reports)
    print(digest)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "gen":
        target = f"gen {args.construction}"
        kwargs = _read_flags(ap, args, target, constructions.BUILDERS,
                             [args.construction], _offered(constructions.BUILDERS))
        return _cmd_gen(args, _build(ap, target, constructions.BUILDERS[args.construction],
                                     kwargs))
    if args.command == "commute":
        if (args.s is None) != (args.t is None):
            ap.error("commute: --s and --t name one pair; give both or neither")
        if args.graph:
            given = [f for f in ("family", *_offered(graphs.FAMILIES))
                     if vars(args)[f] is not None]
            if given:
                ap.error(f"commute --graph: --{given[0]} is read only without --graph")
            g, kwargs = _read_file(ap, "commute", graphs.read_graph_text, args.graph), {}
        else:
            args.family = args.family or DEFAULT_COMMUTE_FAMILY
            target = f"commute {args.family}"
            kwargs = _read_flags(ap, args, target, graphs.FAMILIES, [args.family],
                                 _offered(graphs.FAMILIES))
            g = _build(ap, target, graphs.FAMILIES[args.family], kwargs)
        if args.s is not None:
            _check_vertices(ap, "commute", {"s": args.s, "t": args.t}, g.n)
        if not graphs.is_connected(g):
            ap.error("commute: the graph is not connected")
        return _cmd_commute(args, g, kwargs)
    if args.command in ("suite", "verify"):
        if args.command == "verify":
            target, names = args.inequality, [INEQUALITY_TO_SUITE[args.inequality]]
        else:
            target = args.name
            names = sorted(SUITES) if target == "all" else [target]
        _read_flags(ap, args, f"{args.command} {target}", SUITES, names, KNOBS)
        knobs = {k: vars(args).get(k) for k in KNOBS}
        if knobs["seeds"] is not None:
            knobs["seeds"] = list(range(knobs["seeds"]))
        cfgs = [ExperimentConfig(suite=name, out=args.out, **knobs) for name in names]
        for cfg in cfgs:
            try:
                check_config(cfg)
            except GraphError as err:  # a value the suite's signature rejects
                ap.error(str(err))
        return _cmd_verify(cfgs[0]) if args.command == "verify" else _cmd_suite(cfgs)
    if not args.schedule:
        ap.error(f"{args.command}: needs --schedule")
    s = _read_file(ap, args.command, schedule.load_schedule, args.schedule)
    if args.command == "hit":
        _check_vertices(ap, "hit", {"u": args.u, "v": args.v}, s.n)
    if args.command == "cover":
        _check_vertices(ap, "cover", {"start": args.start}, s.n)
    if args.command == "mix":  # a schedule with no common pi has nothing to mix towards
        pi = _build(ap, "mix", schedule.validate_common_stationary,
                    {"s": s, "horizon": args.horizon or 100}).pi
        return _cmd_mix(args, s, pi)
    handlers = {"hit": _cmd_hit, "cover": _cmd_cover}
    return handlers[args.command](args, s)


if __name__ == "__main__":
    sys.exit(main())
