import json
import re

import numpy as np
import pytest

from fluidsar.channel import DEFAULT_NOISE_W, sample_channel
from fluidsar.cli import main
from fluidsar.harness import ExperimentPlan, derive_seed, run_sweep

from conftest import NOISE_W

# quick solver settings, as a plan's ``solver`` dict and as CLI flags
FAST_SOLVER = {"mu0": 1e-2, "a": 0.5, "max_outer": 60, "max_inner": 8, "max_sca_iter": 8,
               "eps_inner_rel": 1e-3, "eps_position_rel": 1e-3}
FAST = [arg for name, value in FAST_SOLVER.items()
        for arg in ("--" + name.replace("_", "-"), str(value))]


# the top-level keys of each report kind, in order; a balance report's
# "solution" is the solve report of its answer, keyed as a sar-min report
SOLVE_KEYS = ["precoder", "layout", "sar", "sinr", "sinr_slack", "beta_achieved",
              "min_distance", "in_region", "feasible", "converged", "status", "xi",
              "outer_iterations", "inner_sweeps_total", "outer_trace",
              "inner_objective_trace", "wall_time_s", "warnings",
              "config", "final_mu", "position_steps", "dual_evaluations",
              "block_seconds", "block_calls"]
BALANCE_KEYS = ["beta_star", "precoder", "layout", "sar", "budget", "ladder", "warnings",
                "wall_time_s", "solution"]
REPORT_KEYS = {
    "sar-min": SOLVE_KEYS,
    "sinr-balance": BALANCE_KEYS,
    "baseline-no-sar": BALANCE_KEYS,
    "baseline-backoff": ["beta", "precoder", "layout", "sar", "alpha", "unconstrained_beta"],
    "baseline-fpa": ["orientation"] + BALANCE_KEYS,  # at the balance objective
    "baseline-aps": ["value", "objective", "layout", "sar", "beta", "evaluated",
                     "wall_time_s"],
}


def assert_report_keys(doc):
    assert list(doc) == ["kind"] + REPORT_KEYS[doc["kind"]], doc["kind"]
    if "solution" in doc:
        assert list(doc["solution"]) == SOLVE_KEYS, doc["kind"]


def assert_refused(capsys, argv, match):
    """``main(argv)`` ends as argparse ends bad input: exit status 2 and, last
    on standard error, one ``fluidsar...: error:`` line that matches
    ``match``; only argparse's own refusals print their usage above it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 or lines[0].startswith("usage:"), lines
    assert re.match(r"fluidsar( [a-z-]+)*: error: ", lines[-1]), lines[-1]
    assert re.search(match, lines[-1]), lines[-1]


def test_cli_sar_min_with_seed_channel(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["solve", "sar-min", "--channel", "3", "--m", "4", "--k", "4",
               "--paths", "15", "--beta0", str(1.0 / NOISE_W), "--sar", "paper4",
               "--out", str(out)] + FAST)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sar-min"
    assert_report_keys(doc)
    assert doc["converged"] is True
    assert doc["sar"] > 0
    assert len(doc["outer_trace"]) == doc["outer_iterations"]


def test_cli_sar_min_channel_file_replay(tmp_path):
    chan = tmp_path / "chan.json"
    real = sample_channel(9, 4, 4, 5, NOISE_W)
    chan.write_text(real.to_json())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["solve", "sar-min", "--channel", str(chan), "--beta0", str(0.5 / NOISE_W),
            "--sar", "paper4"] + FAST
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    # replay reproduces everything except the clocks
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for doc in (a, b):
        doc.pop("wall_time_s"), doc.pop("block_seconds")
    assert a == b


def test_cli_sinr_balance_and_sar_file(tmp_path):
    from fluidsar.exposure import synthesize_sar_matrix
    sar_file = tmp_path / "sar.json"
    sar_file.write_text(synthesize_sar_matrix(2, budget=1.6).to_json())
    out = tmp_path / "bal.json"
    rc = main(["solve", "sinr-balance", "--channel", "5", "--m", "2", "--k", "2",
               "--paths", "3",
               "--q0", "1.6", "--sar", f"file:{sar_file}", "--eps1", "1e11",
               "--out", str(out)] + FAST)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sinr-balance"
    assert_report_keys(doc)
    assert doc["beta_star"] > 0
    assert doc["sar"] <= 1.6 + 1e-9
    assert len(doc["ladder"]) >= 1


def test_cli_refuses_a_singular_sar_file_before_solving(tmp_path, monkeypatch, capsys):
    from fluidsar import harness
    from test_exposure import singular_sar_json
    sar_file = tmp_path / "sar.json"
    sar_file.write_text(singular_sar_json())

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on the singular model")
    monkeypatch.setattr(harness, "solve_sar_min", no_solve)
    assert_refused(capsys, ["solve", "sar-min", "--channel", "5", "--m", "2", "--k", "2",
                            "--paths", "3", "--beta0", str(0.5 / NOISE_W),
                            "--sar", f"file:{sar_file}"] + FAST, "positive definite")


@pytest.mark.parametrize("problem", ["sar-min", "sinr-balance"])
def test_cli_refuses_a_nan_budget_before_solving(monkeypatch, capsys, problem):
    from fluidsar import harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran with a NaN budget")
    monkeypatch.setattr(harness, "solve_sar_min", no_solve)
    monkeypatch.setattr(harness, "solve_sinr_balance", no_solve)
    extra = ["--beta0", str(0.5 / NOISE_W)] if problem == "sar-min" else []
    assert_refused(capsys, ["solve", problem, "--channel", "5", "--paths", "3", "--q0", "nan"]
                   + extra + FAST, "finite positive")


@pytest.mark.parametrize("argv,match", [
    (["solve", "sar-min", "--beta0", "nan"], "beta0"),
    (["solve", "sinr-balance", "--eps1", "nan"], "accuracy"),
    (["baseline", "backoff", "--eps1", "nan"], "accuracy"),
    (["solve", "sinr-balance", "--weights", "nan,1,1,1"], "weights"),
    (["solve", "sar-min", "--beta0", str(0.5 / NOISE_W), "--half-width", "inf"], "half_width"),
    (["solve", "sinr-balance", "--noise-dbm", "nan"], "noise variance"),
    (["baseline", "no-sar", "--power-budget", "nan"], "power budget"),
])
def test_cli_refuses_a_nan_target_or_accuracy_before_solving(monkeypatch, capsys, argv, match):
    from fluidsar import harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran with a NaN setting")
    for name in ("solve_sar_min", "solve_sinr_balance", "solve_without_sar",
                 "adaptive_backoff"):
        monkeypatch.setattr(harness, name, no_solve)
    assert_refused(capsys, argv + ["--channel", "5", "--paths", "3"] + FAST, match)


@pytest.mark.parametrize("flag,value,match", [("--mu0", "nan", "mu0"),
                                              ("--max-inner", "0", "max_inner")])
def test_cli_refuses_solver_settings_before_solving(monkeypatch, capsys, flag, value, match):
    from fluidsar import harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran with a setting no solve can use")
    monkeypatch.setattr(harness, "solve_sar_min", no_solve)
    # the flag follows FAST, so its value is the one parsed
    assert_refused(capsys, ["solve", "sar-min", "--channel", "5", "--paths", "3",
                            "--beta0", str(0.5 / NOISE_W)] + FAST + [flag, value], match)


def test_cli_baselines(tmp_path):
    for scheme, extra in [
        ("no-sar", []),
        ("backoff", []),
        ("fpa", ["--objective", "balance"]),
        ("aps", ["--objective", "balance"]),
    ]:
        out = tmp_path / f"{scheme}.json"
        rc = main(["baseline", scheme, "--channel", "4", "--m", "2", "--k", "2",
                   "--paths", "3", "--sar", "synth:2", "--eps1", "1e11",
                   "--out", str(out)] + FAST + extra)
        assert rc == 0, scheme
        doc = json.loads(out.read_text())
        assert doc["kind"] == f"baseline-{scheme}"
        assert_report_keys(doc)


@pytest.mark.parametrize("extra", [["--method", "combinations"], ["--aps-cap", "3"]])
def test_cli_aps_takes_no_method_or_cap(monkeypatch, capsys, extra):
    from fluidsar import harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a removed flag")
    monkeypatch.setattr(harness, "solve_aps", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "aps", "--channel", "4", "--m", "2", "--k", "2", "--paths", "3",
              "--sar", "synth:2"] + FAST + extra)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_sweep_and_stdout(tmp_path, capsys):
    plan = {
        "objective": "sar-min", "sweep": "beta0",
        "values": [0.5 / NOISE_W, 1.0 / NOISE_W], "trials": 1,
        "master_seed": 2, "schemes": ["fpa"], "m": 2, "k": 2, "paths": 3,
        "beta0": 1.0 / NOISE_W,
        "solver": {"mu0": 1e-2, "a": 0.5, "max_outer": 50, "max_inner": 6,
                   "max_sca_iter": 6, "eps_inner_rel": 1e-3, "eps_position_rel": 1e-3},
        "out_csv": str(tmp_path / "sweep.csv"),
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    rc = main(["sweep", "--plan", str(plan_file)])
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines()[0] == "sweep_value,scheme,mean,stderr,trials"
    assert capsys.readouterr().out == text


def report_trace_csv(seed, m, k, paths, targets, model, config):
    """The trace CSV built from ``solve_sar_min(...).outer_trace`` at each
    target: one ``beta0,iteration,xi`` row per outer iteration."""
    from fluidsar.solver import SinrTargets, solve_sar_min
    real = sample_channel(seed, m, k, paths, DEFAULT_NOISE_W)
    lines = ["beta0,iteration,xi"]
    for beta0 in targets:
        rep = solve_sar_min(real, SinrTargets.uniform(k, beta0), model, config)
        lines += [f"{beta0:.12g},{row[0]},{row[2]:.12g}" for row in rep.outer_trace]
    return "\n".join(lines) + "\n"


def test_cli_trace(tmp_path, capsys):
    # the CSV is each report's outer trace: at M = 2 on the synthetic model
    # (to a file), at M = 4 on the measured one (to standard output)
    from fluidsar.exposure import paper_sar_matrix, synthesize_sar_matrix
    from fluidsar.solver import SolverConfig
    config = SolverConfig(mu0=1e-2, a=0.5)
    out = tmp_path / "trace.csv"
    targets = [0.5 / NOISE_W, 2.0 / NOISE_W]
    rc = main(["trace", "--seed", "5", "--m", "2", "--k", "2", "--paths", "3",
               "--beta0", f"{targets[0]},{targets[1]}",
               "--mu0", "1e-2", "--a", "0.5", "--out", str(out)])
    assert rc == 0
    want = report_trace_csv(5, 2, 2, 3, targets, synthesize_sar_matrix(2, budget=1.6), config)
    assert out.read_text() == want and len(want.splitlines()) > 10
    capsys.readouterr()
    rc = main(["trace", "--seed", "1", "--paths", "5", "--beta0", "1.6e13,6.3e13",
               "--mu0", "1e-2", "--a", "0.5"])
    assert rc == 0
    want = report_trace_csv(1, 4, 4, 5, [1.6e13, 6.3e13], paper_sar_matrix(budget=1.6), config)
    assert capsys.readouterr().out == want and len(want.splitlines()) > 10


# every solver flag, each with a value that differs from its default and from
# the other flags' values
ALL_SOLVER_FLAGS = {"mu0": 0.02, "a": 0.6, "eps_inner": 2e-4, "eps_outer": 3e-7,
                    "eps_position": 4e-4, "eps_inner_rel": 5e-3, "eps_position_rel": 6e-3,
                    "max_outer": 7, "max_inner": 3, "max_sca_iter": 4}


def _small_sar_min(tmp_path, extra):
    out = tmp_path / "report.json"
    main(["solve", "sar-min", "--channel", "3", "--m", "2", "--k", "2", "--paths", "3",
          "--beta0", str(0.5 / NOISE_W), "--sar", "synth:2", "--out", str(out)] + extra)
    return json.loads(out.read_text())


def test_cli_solver_flags_reach_the_solver(tmp_path):
    argv = []
    for name, value in ALL_SOLVER_FLAGS.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    config = _small_sar_min(tmp_path, argv)["config"]
    for name, value in ALL_SOLVER_FLAGS.items():
        assert config[name] == value, name
        assert type(config[name]) is type(value), name


def test_cli_report_config_key_order(tmp_path):
    config = _small_sar_min(tmp_path, FAST)["config"]
    assert list(config) == [
        "half_width", "wavelength", "min_distance", "mu0", "a", "eps_inner", "eps_outer",
        "eps_position", "eps_inner_rel", "eps_position_rel", "feasibility_slack",
        "max_outer", "max_inner", "max_sca_iter", "optimize_positions",
        "discrete_positions", "beta0", "weights", "budget"]
    assert config["feasibility_slack"] == 1e-5


def test_cli_rejects_unknown_sar(capsys):
    assert_refused(capsys, ["solve", "sar-min", "--channel", "1", "--beta0", "1.0",
                            "--sar", "mystery"], "unknown --sar spec 'mystery'")


# bad input of every kind: a channel seed, channel file, SAR spec, weight list
# or plan that no solve can use, and a SAR budget below zero
BAD_INPUT = [
    (["solve", "sar-min", "--channel", "seed:-5", "--beta0", "1"], "seed -5"),
    (["solve", "sar-min", "--channel", "{tmp}/nofile.json", "--beta0", "1"],
     "No such file.*nofile.json"),
    (["solve", "sar-min", "--channel", "{tmp}/bad.json", "--beta0", "1"], "Expecting"),
    (["solve", "sar-min", "--channel", "5", "--beta0", "1", "--sar", "synth:x"],
     "unknown --sar spec 'synth:x'"),
    (["solve", "sinr-balance", "--channel", "5", "--weights", "a,b"],
     "argument --weights: invalid float_list value: 'a,b'"),
    (["solve", "sar-min", "--channel", "5", "--beta0", "1", "--weights", "1,2,3"],
     "targets and channel disagree on the user count"),
    (["solve", "sinr-balance", "--channel", "5", "--weights", "1,2,3"],
     "weights and channel disagree on the user count"),
    (["solve", "sinr-balance", "--channel", "5", "--q0", "-1"],
     "SAR budget must be a finite positive number"),
    (["sweep", "--plan", "{tmp}/plan.json"], r"unknown plan keys \['bogus'\]"),
]


@pytest.mark.parametrize("argv,match", BAD_INPUT, ids=[
    "negative-seed", "missing-channel-file", "malformed-channel-file", "synth-spec",
    "weights-not-numbers", "weights-count-sar-min", "weights-count-balance",
    "negative-budget", "unknown-plan-key"])
def test_cli_ends_bad_input_in_one_error_line(tmp_path, capsys, argv, match):
    # status 1 belongs to a sar-min solve that did not converge, so bad input
    # must not end in a traceback (status 1) either
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "plan.json").write_text(json.dumps({
        "objective": "sar-min", "sweep": "beta0", "values": [1.0], "beta0": 1.0,
        "bogus": 1}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    paths = [] if argv[0] == "sweep" else ["--paths", "3"]
    assert_refused(capsys, argv + paths, match)


# documents that parse as JSON but are no channel, SAR model or plan: each
# names the class it fails to be
MALFORMED = [
    (["solve", "sar-min", "--channel", "{doc}"], {}, "ChannelRealization.*KeyError: 'users'"),
    (["solve", "sar-min", "--channel", "{doc}"], [], "ChannelRealization.*not a JSON object"),
    (["solve", "sar-min", "--channel", "{doc}"], {"users": [{}], "noise_variance": 1e-13},
     "ChannelRealization.*KeyError: 'elevation_aods'"),
    (["solve", "sar-min", "--channel", "5", "--sar", "file:{doc}"], {"matrix": 1},
     "SarModel.*IndexError"),
    (["sweep", "--plan", "{doc}"], {"objective": "sar-min"}, "ExperimentPlan.*TypeError"),
    (["sweep", "--plan", "{doc}"], [1, 2], "ExperimentPlan.*not a JSON object"),
]


@pytest.mark.parametrize("argv,doc,match", MALFORMED, ids=[
    "channel-empty", "channel-list", "channel-user-empty", "sar-matrix-scalar",
    "plan-missing-keys", "plan-list"])
def test_cli_refuses_a_malformed_document(tmp_path, capsys, argv, doc, match):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = [a.format(doc=tmp_path / "doc.json") for a in argv]
    extra = [] if argv[0] == "sweep" else ["--paths", "3", "--beta0", "1"]
    assert_refused(capsys, argv + extra, match)


@pytest.mark.parametrize("argv", [
    ["solve", "sar-min", "--beta0", "1e13", "--sar", "synth:3"],
    ["baseline", "backoff", "--eps1", "1e12", "--sar", "synth:3"],
    ["solve", "sinr-balance", "--eps1", "1e12", "--sar", "file:{tmp}/sar3.json"],
], ids=["synth-sar-min", "synth-backoff", "file-sinr-balance"])
def test_cli_refuses_a_sar_model_of_another_antenna_count(tmp_path, monkeypatch, capsys,
                                                          argv):
    from fluidsar import harness
    from fluidsar.exposure import synthesize_sar_matrix
    (tmp_path / "sar3.json").write_text(synthesize_sar_matrix(3).to_json())

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a model of another antenna count")
    for name in ("solve_sar_min", "solve_sinr_balance", "solve_without_sar",
                 "adaptive_backoff"):
        monkeypatch.setattr(harness, name, no_solve)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert_refused(capsys, argv + ["--channel", "5", "--m", "2", "--k", "2", "--paths", "3"],
                   r"(synth:3|sar3\.json) has 3 antennas, not --m 2")


@pytest.mark.parametrize("objective,schemes", [
    ("balance", ("fas", "aps", "fpa", "no-sar", "backoff")),
    ("sar-min", ("fas", "aps", "fpa"))])
def test_cli_reports_the_value_of_the_sweep_row(tmp_path, objective, schemes):
    # one M = K = 2 channel, solved by a sweep and by the CLI with the same
    # settings: each report holds its sweep row's value_metric, bit for bit
    beta0 = 0.5 / DEFAULT_NOISE_W
    plan = ExperimentPlan(objective=objective, sweep="scheme", values=schemes, trials=1,
                          master_seed=7, m=2, k=2, paths=3, accuracy=1e12,
                          beta0=beta0 if objective == "sar-min" else None, solver=FAST_SOLVER)
    rows = {row["scheme"]: row for row in run_sweep(plan).rows}
    common = ["--channel", str(derive_seed(7, 0)), "--m", "2", "--k", "2", "--paths", "3",
              "--sar", "synth:2"] + FAST
    target = ["--beta0", repr(beta0)] if objective == "sar-min" else []
    for scheme in schemes:
        if scheme == "fas" and objective == "sar-min":
            argv = ["solve", "sar-min"] + target
        elif scheme == "fas":
            argv = ["solve", "sinr-balance", "--eps1", "1e12"]
        else:
            argv = ["baseline", scheme, "--eps1", "1e12"]
            if scheme in ("aps", "fpa"):
                argv += ["--objective", objective] + target
        out = tmp_path / f"{scheme}.json"
        main(argv + common + ["--out", str(out)])
        doc = json.loads(out.read_text())
        key = "value" if scheme == "aps" else "beta" if scheme == "backoff" else \
            "beta_star" if objective == "balance" else "sar"
        assert rows[scheme]["status"] == "ok", scheme
        assert doc[key] == rows[scheme]["value_metric"], scheme


def test_cli_leaves_solver_faults_as_tracebacks(monkeypatch):
    from fluidsar import harness
    from fluidsar.solver import SolverError

    def fault(*args, **kwargs):
        raise SolverError("inner objective increased")
    monkeypatch.setattr(harness, "solve_sar_min", fault)
    with pytest.raises(SolverError, match="inner objective increased"):
        main(["solve", "sar-min", "--channel", "5", "--paths", "3", "--beta0", "1"])
