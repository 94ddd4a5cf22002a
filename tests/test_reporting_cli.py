import functools
import json
import os

import numpy as np
import pytest

from dynwalks import cli, constructions, graphs, reporting, schedule
from dynwalks.errors import GenerationError, GraphError
from dynwalks.reporting import BoundReport, csv_body, loglog_slope
from dynwalks.suites import KNOBS, SUITES, ExperimentConfig, run_suite


def make_report(lhs=1.0, rhs=2.0, **kw):
    base = dict(suite="s", inequality_id="iq", instance="i", lhs=lhs, rhs=rhs,
                tolerance=1e-9, provenance="DERIVED")
    base.update(kw)
    return BoundReport(**base)


def test_bound_report_pass_logic():
    assert make_report(1.0, 2.0).passed
    assert make_report(2.0, 2.0).passed
    assert make_report(2.0 + 5e-10, 2.0).passed  # inside tolerance
    assert not make_report(2.1, 2.0).passed
    assert make_report(2.0, 1.0).margin == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        make_report(provenance="GUESSED")


def test_bound_report_coerces_numpy_values():
    r = make_report(np.float64(1.5), np.float64(2.5),
                    extra={"x": np.int64(3), "y": np.float64(0.25)})
    assert isinstance(r.lhs, float) and isinstance(r.extra["x"], int)
    assert "np." not in ",".join(r.row())


def test_csv_round_trip(tmp_path):
    rows = [make_report(), make_report(lhs=3.0, rhs=1.0, status="scaling", n=8,
                                       extra={"k": 2})]
    path = tmp_path / "r.csv"
    reporting.write_report_csv(path, rows, config_doc={"suite": "s"})
    parsed = reporting.read_report_rows(path)
    assert len(parsed) == 2
    assert parsed[0]["passed"] == "1" and parsed[1]["passed"] == "0"
    assert json.loads(parsed[1]["extra"]) == {"k": 2}
    assert float(parsed[0]["lhs"]) == 1.0


def test_csv_body_skips_timestamp_header(tmp_path):
    path = tmp_path / "r.csv"
    reporting.write_report_csv(path, [make_report()])
    body = csv_body(path)
    assert body.startswith(b"suite,")
    assert b"generated" not in body


def test_summarize_reports_failures_and_slopes(tmp_path):
    rows = [
        make_report(suite="demo"),
        make_report(suite="demo", lhs=5.0, rhs=1.0, instance="bad"),
        make_report(suite="demo", inequality_id="x-scaling", lhs=10.0, rhs=10.0, n=8,
                    status="scaling"),
        make_report(suite="demo", inequality_id="x-scaling", lhs=40.0, rhs=40.0, n=16,
                    status="scaling"),
        make_report(suite="demo", inequality_id="x-scaling", lhs=160.0, rhs=160.0, n=32,
                    status="scaling"),
    ]
    path = tmp_path / "s.csv"
    reporting.write_report_csv(path, rows)
    digest, ok = reporting.summarize([path])
    assert not ok
    assert "FAIL" in digest and "bad" in digest
    assert "slope 2.000" in digest


def test_read_report_rows_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# generated now\n" + ",".join(reporting.CSV_COLUMNS)
                    + "\ns,iq,i,1,,h,1.0,2.0\n")
    with pytest.raises(reporting.ReportParseError) as err:
        reporting.read_report_rows(path)
    assert err.value.line == 3
    path.write_text("wrong,header\n")
    with pytest.raises(reporting.ReportParseError):
        reporting.read_report_rows(path)


def test_loglog_slope():
    assert loglog_slope([8, 16], [1, 2]) is None
    slope, se = loglog_slope([8, 16, 32, 64], [64, 256, 1024, 4096])
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_experiment_config_rejects_unknown_keys():
    cfg = ExperimentConfig(suite="eq-mihai", seeds=[0])
    assert cfg.suite == "eq-mihai"
    for key in ("bogus", "steps", "horizon", "tolerance"):  # the last three were knobs
        for value in (0, 2):
            with pytest.raises(GraphError, match="unknown config keys"):
                ExperimentConfig(suite="eq-mihai", **{key: value})
    with pytest.raises(GraphError):
        run_suite(ExperimentConfig(suite="no-such-suite"))


def test_run_suite_error_record(tmp_path, monkeypatch):
    from dynwalks import suites

    def boom():
        raise GraphError("bad precondition")

    monkeypatch.setitem(suites.SUITES, "eq-interesting", boom)
    cfg = ExperimentConfig(suite="eq-interesting", out=str(tmp_path))
    with pytest.raises(GraphError):
        run_suite(cfg)
    rows = reporting.read_report_rows(tmp_path / "eq-interesting.csv")
    assert rows[0]["id"] == "suite-error"
    assert rows[0]["status"] == "error"
    assert "bad precondition" in rows[0]["instance"]


def test_run_suite_writes_deterministic_csv(tmp_path):
    cfg_a = ExperimentConfig(suite="eq-interesting", out=str(tmp_path / "a"))
    cfg_b = ExperimentConfig(suite="eq-interesting", out=str(tmp_path / "b"))
    _, pa, ok_a = run_suite(cfg_a)
    _, pb, ok_b = run_suite(cfg_b)
    assert ok_a and ok_b
    assert csv_body(pa) == csv_body(pb)


def test_suite_registry_covers_all_criteria():
    assert len(SUITES) == 14


def test_cli_gen_mix_hit_cover(tmp_path):
    sched = tmp_path / "cycle.json"
    rc = cli.main(["gen", "complete_then_cycle", "--n", "12", "--out", str(sched)])
    assert rc == 0 and sched.exists()
    loaded = schedule.load_schedule(sched)
    assert loaded.n == 12
    assert cli.main(["mix", "--schedule", str(sched)]) == 0
    assert cli.main(["hit", "--schedule", str(sched), "--u", "0", "--v", "5",
                     "--out", str(tmp_path / "hit.csv")]) == 0
    assert (tmp_path / "hit.csv").exists()
    assert cli.main(["cover", "--schedule", str(sched), "--trials", "20",
                     "--seed", "3"]) == 0


def test_cli_commute_on_graph_file(tmp_path, write_graph_text):
    g = graphs.circulant_graph(10, 2)
    gpath = tmp_path / "g.txt"
    write_graph_text(g, gpath)
    out = tmp_path / "commute.csv"
    rc = cli.main(["commute", "--graph", str(gpath), "--s", "0", "--t", "5",
                   "--out", str(out)])
    assert rc == 0
    rows = reporting.read_report_rows(out)
    assert len(rows) == 1
    extra = json.loads(rows[0]["extra"])
    assert extra["nw_lower_flow"] <= extra["exact"] <= extra["cutsum_flow"]
    assert extra["cutsum_2m"] == pytest.approx(extra["cutsum_flow"] / 2)


def test_cli_verify_and_suite(tmp_path):
    out = tmp_path / "v"
    rc = cli.main(["verify", "eq-mihai", "--seeds", "2", "--out", str(out)])
    assert rc == 0
    rc = cli.main(["suite", "eq-interesting", "--out", str(out)])
    assert rc == 0
    assert (out / "eq-interesting.csv").exists()


def test_cli_rejects_tmax_where_it_has_no_effect(tmp_path, capsys):
    for argv in (["suite", "eq-mihai", "--tmax", "1"],
                 ["verify", "eq-mihai", "--seeds", "1", "--tmax", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--tmax" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    sched = tmp_path / "s.json"
    assert cli.main(["gen", "complete_then_cycle", "--n", "12", "--out", str(sched)]) == 0
    assert cli.main(["hit", "--schedule", str(sched), "--u", "0", "--v", "5",
                     "--tmax", "3"]) == 0
    assert "T=3 " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gen", "random_regular", "--trials", "5"],
    ["mix", "--trials", "5"],
    ["hit", "--u", "0", "--v", "1", "--seed", "1"],
    ["cover", "--eps", "0.1"],
    ["cover", "--out", "x.csv"],
    ["verify", "eq-mihai", "--trials", "5"],
    ["verify", "eq-mihai", "--eps", "1e-6"],
    ["commute", "--n", "6", "--eps", "1e-6"],
    ["suite", "eq-mihai", "--schedule", "s.json"],
])
def test_cli_verbs_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_suite_rejects_eps_and_trials_where_no_suite_reads_them(tmp_path, capsys):
    for argv in (["suite", "eq-mihai", "--eps", "1e-6"],
                 ["suite", "nomixing", "--trials", "5"],
                 ["suite", "torus-scaling", "--trials", "5"],
                 ["suite", "all", "--eps", "1e-6"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"--{argv[2][2:]} is read only by" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert cli.main(["suite", "cover-hit-gap", "--sizes", "16", "--trials", "5",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cover-hit-gap.csv").exists()


# the knobs each suite reads; every other (suite, knob) pair must be rejected
READS = {
    "eq-mihai": {"seeds"},
    "lemma-imp": {"seeds"},
    "thm-average": {"seeds"},
    "lemma-inftoell2": {"seeds"},
    "cheeger-ballsize": {"seeds"},
    "worst-case": {"sizes", "eps", "trials"},
    "torus-scaling": {"sizes", "eps"},
    "counterexamples": {"sizes", "eps"},
    "nomixing": {"sizes", "seeds"},
    "commute-bounds": {"seeds", "sizes"},
    "connected-labelling": set(),
    "eq-interesting": {"sizes"},
    "circulant-connectivity": {"sizes"},
    "cover-hit-gap": {"sizes", "trials"},
}
KNOB_VALUES = {"sizes": [8], "seeds": [3], "trials": 5, "eps": 1e-6}
# former knobs, now fixed constants: every suite must reject them as unknown keys
REMOVED_KNOB_VALUES = {"horizon": 100, "steps": 3, "tolerance": 1e-8}


# (suite, flag) pairs the CLI accepted and ignored before suites declared their knobs
CLI_UNREAD = [(name, knob) for name in sorted(READS) for knob in ("sizes", "seeds")
              if knob not in READS[name]]


def test_read_table_counts():
    assert set(READS) == set(SUITES) and set(KNOB_VALUES) == set(KNOBS)
    assert not set(REMOVED_KNOB_VALUES) & set(KNOBS)
    assert sum(len(knobs) for knobs in READS.values()) == 20
    assert len(CLI_UNREAD) == 13


def test_knobs_are_exactly_the_suite_flags():
    assert KNOBS == ("sizes", "seeds", "trials", "eps")
    assert set(KNOBS) == _flags_of(["suite", "all"], {"name"})


@pytest.mark.parametrize("knob", sorted(KNOB_VALUES | REMOVED_KNOB_VALUES))
@pytest.mark.parametrize("name", sorted(READS))
def test_run_suite_passes_read_knobs_and_rejects_the_rest(tmp_path, monkeypatch, name, knob):
    real = SUITES[name]
    calls = []

    @functools.wraps(real)  # keeps the real signature visible to run_suite
    def recorder(**kw):
        calls.append(kw)
        return []

    monkeypatch.setitem(SUITES, name, recorder)
    if knob in REMOVED_KNOB_VALUES:
        with pytest.raises(GraphError, match="unknown config keys"):
            ExperimentConfig(suite=name, out=str(tmp_path), **{knob: REMOVED_KNOB_VALUES[knob]})
        assert calls == [] and not list(tmp_path.iterdir())
        return
    cfg = ExperimentConfig(suite=name, out=str(tmp_path), **{knob: KNOB_VALUES[knob]})
    if knob in READS[name]:
        run_suite(cfg)
        assert calls == [{knob: KNOB_VALUES[knob]}]
        assert (tmp_path / f"{name}.csv").exists()
    else:
        with pytest.raises(GraphError, match=f"{knob} is read only by"):
            run_suite(cfg)
        assert calls == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    *[["suite", name, f"--{knob}", str(KNOB_VALUES[knob][0])] for name, knob in CLI_UNREAD],
    ["verify", "eq-interesting", "--seeds", "2"],
    ["suite", "all", "--sizes", "8"],
    ["suite", "all", "--seeds", "2"],
    ["suite", "all", "--trials", "5"],
    ["suite", "all", "--eps", "1e-6"],
])
def test_cli_rejects_sizes_and_seeds_where_the_suite_ignores_them(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{argv[2]} is read only by" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kw", [
    {"seeds": []}, {"sizes": []}, {"seeds": [0.5]}, {"sizes": (8,)}, {"seeds": [True]},
    {"sizes": [0]}, {"sizes": [-4]}, {"trials": 0}, {"trials": 2.0},
    {"eps": 0.0}, {"eps": -1e-9}, {"seeds": [-1]},
])
def test_experiment_config_rejects_zero_and_empty_overrides(tmp_path, kw):
    with pytest.raises(GraphError):
        ExperimentConfig(suite="eq-mihai", **kw)


@pytest.mark.parametrize("argv", [
    ["suite", "lemma-inftoell2", "--seeds", "0"],
    ["suite", "worst-case", "--trials", "0"],
    ["suite", "worst-case", "--eps", "0"],
    ["suite", "worst-case", "--sizes", "0"],
    ["suite", "eq-interesting", "--sizes"],
    ["verify", "eq-mihai", "--seeds", "0"],
    ["cover", "--trials", "-1"],
    ["cover", "--horizon", "0"],
    ["mix", "--threshold", "-1"],
    ["mix", "--horizon", "0"],
    ["hit", "--u", "0", "--v", "1", "--tmax", "0"],
    ["suite", "torus-scaling", "--sizes", "7"],
])
def test_cli_rejects_zero_and_empty_overrides(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)] if argv[0] != "cover" else argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, kw", [
    ("torus-scaling", {"sizes": [7]}),
    ("torus-scaling", {"sizes": [4, 9]}),
])
def test_suites_reject_entries_they_would_ignore(tmp_path, name, kw):
    with pytest.raises(GraphError):
        run_suite(ExperimentConfig(suite=name, out=str(tmp_path), **kw))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, knob, kw", [
    ("nomixing", "sizes", {"sizes": [200, 500]}),
    ("nomixing", "seeds", {"sizes": [200], "seeds": [1, 2]}),
    ("cover-hit-gap", "sizes", {"sizes": [16, 32], "trials": 5}),
])
def test_suites_give_each_entry_its_own_rows(tmp_path, name, knob, kw):
    def rows(sub, **over):
        cfg = ExperimentConfig(suite=name, out=str(tmp_path / sub), **{**kw, **over})
        return csv_body(run_suite(cfg)[1]).splitlines()

    both = rows("both")
    first, second = (rows(f"e{v}", **{knob: [v]}) for v in kw[knob])
    assert both == first + second[1:]


def test_default_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNWALKS_OUTDIR", str(tmp_path / "envout"))
    assert reporting.default_out_dir() == str(tmp_path / "envout")
    cfg = ExperimentConfig(suite="eq-interesting")
    _, path, _ = run_suite(cfg)
    assert str(tmp_path / "envout") in path
    assert os.path.exists(path)


# the flags each `gen` construction reads; every other (construction, flag)
# pair must exit with status 2 before writing
GEN_READS = {
    "expander_matching": {"n", "seed"},
    "random_regular": {"n", "d", "seed"},
    "complete_then_cycle": {"n", "c"},
    "nomixing": {"n", "t", "seed"},
    "nohitting": {"n"},
    "nohitting_doubled": {"n"},
    "torus_schedule": {"dim", "side", "seed"},
    "circulant": {"n", "rho"},
    "barbell": {"n"},
}
# the required flags of each construction, set to values other than GEN_VALUES
GEN_BASE = {
    "expander_matching": ["--n", "8"], "random_regular": ["--n", "8"],
    "complete_then_cycle": ["--n", "12"], "nomixing": ["--n", "200", "--t", "3"],
    "nohitting": ["--n", "8"], "nohitting_doubled": ["--n", "8"],
    "torus_schedule": ["--dim", "2", "--side", "4"], "circulant": ["--n", "12", "--rho", "2"],
    "barbell": ["--n", "9"],
}
GEN_VALUES = {"n": "24", "d": "3", "t": "4", "c": "3.0", "dim": "3", "side": "5",
              "rho": "3", "seed": "3"}


def _flags_of(argv, other):
    """The flags a verb's parser offers besides ``other``."""
    return set(vars(cli.build_parser().parse_args(argv))) - {"command", "out", *other}


def _with_flag(argv, flag, value):
    argv = list(argv)
    if f"--{flag}" in argv:
        argv[argv.index(f"--{flag}") + 1] = value
    else:
        argv += [f"--{flag}", value]
    return argv


def test_gen_read_table_counts():
    assert set(GEN_READS) == set(GEN_BASE) == set(constructions.BUILDERS)
    assert set(GEN_VALUES) == _flags_of(["gen", "nohitting"], {"construction"})
    assert len(GEN_READS) * len(GEN_VALUES) == 72
    assert sum(len(flags) for flags in GEN_READS.values()) == 18


@pytest.mark.parametrize("flag", sorted(GEN_VALUES))
@pytest.mark.parametrize("name", sorted(GEN_READS))
def test_gen_accepts_exactly_the_flags_its_builder_reads(tmp_path, capsys, name, flag):
    argv = ["gen", name, *_with_flag(GEN_BASE[name], flag, GEN_VALUES[flag])]
    out = tmp_path / "flag.json"
    if flag in GEN_READS[name]:
        base = tmp_path / "base.json"
        assert cli.main(["gen", name, *GEN_BASE[name], "--out", str(base)]) == 0
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() != base.read_bytes()  # the flag has an effect
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"gen {name}: --{flag} is read only by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["gen", "random_regular"],
    ["gen", "nomixing", "--n", "200"],
    ["gen", "torus_schedule", "--dim", "2"],
    ["gen", "circulant", "--n", "12"],
    ["commute"],
    ["commute", "--family", "cycle"],
    ["mix"],
    ["hit", "--u", "0", "--v", "1"],
])
def test_missing_required_flag_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "needs --" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, n, digest", [
    ("nohitting_doubled", "8", "bc95f0cef58f8b6b"),
    ("nohitting", "16", "6515e9c31f568bae"),
])
def test_gen_schedule_hashes_are_pinned(tmp_path, capsys, name, n, digest):
    assert cli.main(["gen", name, "--n", n, "--out", str(tmp_path / "s.json")]) == 0
    assert f"hash={digest} " in capsys.readouterr().out


COMMUTE_READS = {
    "cycle": {"n"}, "path": {"n"}, "complete": {"n"}, "barbell": {"n"},
    "circulant": {"n", "rho"}, "complete_prism": {"n"},
    "gnp_connected": {"n", "p", "seed"}, "expander3": {"n", "seed"},
}
COMMUTE_VALUES = {"n": "12", "p": "0.3", "rho": "3", "seed": "5"}


def test_commute_read_table_counts():
    assert set(COMMUTE_READS) == set(graphs.FAMILIES)
    assert set(COMMUTE_VALUES) == _flags_of(["commute"], {"graph", "family", "s", "t"})
    assert sum(len(flags) for flags in COMMUTE_READS.values()) == 12


@pytest.mark.parametrize("flag", sorted(COMMUTE_VALUES))
@pytest.mark.parametrize("family", sorted(COMMUTE_READS))
def test_commute_accepts_exactly_the_flags_its_family_reads(tmp_path, capsys, family, flag):
    out = tmp_path / "c.csv"
    argv = ["commute", "--family", family,
            *_with_flag(["--n", "12"], flag, COMMUTE_VALUES[flag]),
            "--s", "0", "--t", "1", "--out", str(out)]
    if flag in COMMUTE_READS[family]:
        assert cli.main(argv) == 0
        [row] = reporting.read_report_rows(out)
        # a seed is recorded only where the family draws one (default 0)
        seed = (COMMUTE_VALUES["seed"] if flag == "seed" else "0") \
            if "seed" in COMMUTE_READS[family] else ""
        assert row["seed"] == seed
        assert row["instance"] == f"{family}-n12{f'-seed{seed}' if seed else ''} s=0 t=1"
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"commute {family}: --{flag} is read only by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--family", "cycle"], ["--n", "6"], ["--p", "0.5"], ["--rho", "2"], ["--seed", "0"],
])
def test_commute_rejects_family_flags_beside_graph(tmp_path, capsys, argv, write_graph_text):
    gpath = tmp_path / "g.txt"
    write_graph_text(graphs.cycle_graph(5), gpath)
    with pytest.raises(SystemExit) as exc:
        cli.main(["commute", "--graph", str(gpath), *argv,
                  "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert f"{argv[0]} is read only without --graph" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["--s", "0"], "--s and --t name one pair"),
    (["--t", "1"], "--s and --t name one pair"),
    (["--s", "0", "--t", "5"], "--s and --t must be two distinct vertices below 5"),
    (["--s", "2", "--t", "2"], "--s and --t must be two distinct vertices below 5"),
])
def test_commute_pair_is_two_vertices_of_the_graph(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["commute", "--family", "cycle", "--n", "5", *argv,
                  "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert f"commute: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, target", [
    (["gen", "nohitting", "--n", "10"], "gen nohitting"),
    (["gen", "barbell", "--n", "16"], "gen barbell"),
    (["gen", "random_regular", "--n", "12", "--d", "6"], "gen random_regular"),
    (["commute", "--family", "circulant", "--n", "4"], "commute circulant"),
])
def test_values_a_builder_rejects_exit_2(tmp_path, capsys, argv, target):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"{target}: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# torus and random_regular graphs need --dims / --d, which commute does not have
@pytest.mark.parametrize("argv", [
    ["gen", "nope", "--n", "8"],
    ["commute", "--family", "torus", "--n", "8"],
    ["commute", "--family", "random_regular", "--n", "8"],
])
def test_unknown_construction_or_family_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_commute_expander3_uses_the_size_aware_gap(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["commute", "--family", "expander3", "--n", "128", "--s", "0",
                     "--t", "3", "--out", str(out)]) == 0
    [row] = reporting.read_report_rows(out)
    assert row["passed"] == "1"


@pytest.mark.parametrize("argv, message", [
    (["cover", "--start", "99"], "cover: --start must be a vertex below 12"),
    (["cover", "--start", "-1"], "cover: --start must be a vertex below 12"),
    (["hit", "--u", "0", "--v", "99"], "hit: --u and --v must be two distinct vertices below 12"),
    (["hit", "--u", "0", "--v", "0"], "hit: --u and --v must be two distinct vertices below 12"),
    (["hit", "--u", "-1", "--v", "3"], "hit: --u and --v must be two distinct vertices below 12"),
])
def test_vertices_outside_the_schedule_exit_2(tmp_path, capsys, argv, message):
    sched = tmp_path / "cycle.json"
    assert cli.main(["gen", "complete_then_cycle", "--n", "12", "--out", str(sched)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    extra = [] if argv[0] == "cover" else ["--out", str(out / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--schedule", str(sched)] + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err
    assert not list(out.iterdir())


# a seed numpy cannot take is a usage error, before any file is written
@pytest.mark.parametrize("argv", [
    ["gen", "random_regular", "--n", "8", "--seed", "-1"],
    ["commute", "--family", "gnp_connected", "--n", "6", "--seed", "-1"],
    ["cover", "--seed", "-1"],
])
def test_negative_seeds_exit_2(tmp_path, capsys, argv):
    sched = tmp_path / "cycle.json"
    schedule.save_schedule(constructions.build_complete_then_cycle(12), sched)
    out = tmp_path / "out"
    out.mkdir()
    extra = ["--schedule", str(sched)] if argv[0] == "cover" else ["--out", str(out / "x")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--seed: must be a non-negative int; got -1" in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("verb, text, message", [
    ("mix", None, "cannot read"),
    ("mix", '{"n": 4, "mode": "bogus"}', "unknown schedule mode"),
    ("mix", '{"n": 4}', "cannot read"),
    ("mix", "not json", "cannot read"),
    # generator schedules: step 1 is drawn on load
    ("mix", '{"n": 8, "mode": "generator", '
            '"generator": {"family": "nope", "params": {}, "seed": 0}}', "cannot read"),
    ("hit", '{"n": 8, "mode": "generator", '
            '"generator": {"family": "random_regular_sequence", "params": {}, "seed": 0}}',
     "cannot read"),
    # d = 6: seed 15 draws its step 1, but later steps need not
    ("mix", '{"n": 12, "mode": "generator", "generator": '
            '{"family": "random_regular_sequence", "params": {"d": 6}, "seed": 15}}',
     "cannot read"),
    # a family that exhausts its retry budget (GenerationError) on step 1
    ("mix", '{"n": 8, "mode": "generator", '
            '"generator": {"family": "exhausted", "params": {}, "seed": 0}}',
     "cannot read {path}: 8-vertex step: no sample in the retry budget"),
    ("hit", None, "cannot read"),
    ("commute", None, "cannot read"),
    ("commute", "3 1\n0 1 5\n", "cannot read"),
    ("commute", "3 1\n1 1\n", "self-loops are not allowed"),
    ("commute", "4 2\n0 1\n2 3\n", "commute: the graph is not connected"),
])
def test_bad_input_files_exit_2(tmp_path, capsys, monkeypatch, verb, text, message):
    def exhausted(n, params, seed, t):
        raise GenerationError(f"{n}-vertex step: no sample in the retry budget")

    monkeypatch.setitem(constructions.GENERATOR_FAMILIES, "exhausted", exhausted)
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    flag = "--graph" if verb == "commute" else "--schedule"
    pair = ["--u", "0", "--v", "1"] if verb == "hit" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, flag, str(path), *pair, "--out", str(out / "r.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message.format(path=path) in err
    assert not list(out.iterdir())

