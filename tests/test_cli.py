import json

import numpy as np
import pytest

from fluidsar.channel import sample_channel
from fluidsar.cli import main

from conftest import NOISE_W

FAST = ["--mu0", "1e-2", "--a", "0.5", "--max-outer", "60",
        "--max-inner", "8", "--max-sca-iter", "8",
        "--eps-inner-rel", "1e-3", "--eps-position-rel", "1e-3"]


# the top-level keys of each report kind, in order; a balance report's
# "solution" is the solve report of its answer, keyed as a sar-min report
SOLVE_KEYS = ["precoder", "layout", "sar", "sinr", "sinr_slack", "beta_achieved",
              "min_distance", "in_region", "feasible", "converged", "status", "xi",
              "outer_iterations", "inner_sweeps_total", "outer_trace",
              "inner_objective_trace", "wall_time_s", "warnings",
              "config", "final_mu", "position_steps"]
BALANCE_KEYS = ["beta_star", "precoder", "layout", "sar", "budget", "ladder", "iterations",
                "warnings", "wall_time_s", "solution"]
REPORT_KEYS = {
    "sar-min": SOLVE_KEYS,
    "sinr-balance": BALANCE_KEYS,
    "baseline-no-sar": BALANCE_KEYS,
    "baseline-backoff": ["beta", "precoder", "layout", "sar", "alpha", "unconstrained_beta"],
    "baseline-fpa": ["orientation"] + BALANCE_KEYS,  # at the balance objective
    "baseline-aps": ["value", "objective", "layout", "sar", "beta", "evaluated",
                     "total_combinations", "coverage", "subsampled", "wall_time_s"],
}


def assert_report_keys(doc):
    assert list(doc) == ["kind"] + REPORT_KEYS[doc["kind"]], doc["kind"]
    if "solution" in doc:
        assert list(doc["solution"]) == SOLVE_KEYS, doc["kind"]


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
    # replay reproduces everything except the wall clock
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_s"), b.pop("wall_time_s")
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


def test_cli_refuses_a_singular_sar_file_before_solving(tmp_path, monkeypatch):
    from fluidsar import cli
    from fluidsar.channel import ConfigurationError
    from test_exposure import singular_sar_json
    sar_file = tmp_path / "sar.json"
    sar_file.write_text(singular_sar_json())

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on the singular model")
    monkeypatch.setattr(cli, "solve_sar_min", no_solve)
    with pytest.raises(ConfigurationError, match="positive definite"):
        main(["solve", "sar-min", "--channel", "5", "--m", "2", "--k", "2", "--paths", "3",
              "--beta0", str(0.5 / NOISE_W), "--sar", f"file:{sar_file}"] + FAST)


@pytest.mark.parametrize("problem", ["sar-min", "sinr-balance"])
def test_cli_refuses_a_nan_budget_before_solving(monkeypatch, problem):
    from fluidsar import cli
    from fluidsar.channel import ConfigurationError

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran with a NaN budget")
    monkeypatch.setattr(cli, "solve_sar_min", no_solve)
    monkeypatch.setattr(cli, "solve_sinr_balance", no_solve)
    extra = ["--beta0", str(0.5 / NOISE_W)] if problem == "sar-min" else []
    with pytest.raises(ConfigurationError, match="finite positive"):
        main(["solve", problem, "--channel", "5", "--paths", "3", "--q0", "nan"]
             + extra + FAST)


def test_cli_baselines(tmp_path):
    for scheme, extra in [
        ("no-sar", []),
        ("backoff", []),
        ("fpa", ["--objective", "balance"]),
        ("aps", ["--objective", "balance", "--aps-cap", "3"]),
    ]:
        out = tmp_path / f"{scheme}.json"
        rc = main(["baseline", scheme, "--channel", "4", "--m", "2", "--k", "2",
                   "--paths", "3", "--sar", "synth:2", "--eps1", "1e11",
                   "--out", str(out)] + FAST + extra)
        assert rc == 0, scheme
        doc = json.loads(out.read_text())
        assert doc["kind"] == f"baseline-{scheme}"
        assert_report_keys(doc)


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


def test_cli_trace(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["trace", "--seed", "5", "--m", "2", "--k", "2", "--paths", "3",
               "--beta0", f"{0.5 / NOISE_W},{2.0 / NOISE_W}",
               "--mu0", "1e-2", "--a", "0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta0,iteration,xi"
    assert len(lines) > 10


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


def test_cli_rejects_unknown_sar(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "sar-min", "--channel", "1", "--beta0", "1.0",
              "--sar", "mystery"])
