import json
import os
from dataclasses import fields

import numpy as np
import pytest

from fluidsar import balance
from fluidsar.channel import ConfigurationError
from fluidsar.harness import (
    ExperimentPlan,
    RunRecord,
    convergence_trace,
    derive_seed,
    run_sweep,
    worker_count,
)
from fluidsar.solver import SolverConfig

from conftest import NOISE_W


def tiny_plan(**overrides):
    base = dict(
        objective="sar-min",
        sweep="beta0",
        values=(0.5 / NOISE_W, 2.0 / NOISE_W),
        trials=2,
        master_seed=77,
        schemes=("fas", "fpa"),
        m=2, k=2, paths=3,
        beta0=1.0 / NOISE_W,
        solver=dict(mu0=1e-2, a=0.5, max_outer=50, max_inner=6, max_sca_iter=6,
                    eps_inner_rel=1e-3, eps_position_rel=1e-3),
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        tiny_plan(objective="throughput")
    with pytest.raises(ConfigurationError):
        tiny_plan(sweep="power")
    with pytest.raises(ConfigurationError):
        tiny_plan(values=())
    with pytest.raises(ConfigurationError):
        tiny_plan(trials=0)
    with pytest.raises(ConfigurationError):
        tiny_plan(schemes=("fas", "mystery"))
    with pytest.raises(ConfigurationError):
        tiny_plan(schemes=("backoff",))  # balance-only scheme on a sar-min plan
    with pytest.raises(ConfigurationError):
        tiny_plan(beta0=None)
    # solver keys are checked when the plan is built, not in the first bundle
    for solver in ({"bogus": 1}, {"polish": False}, {"region": None}):
        with pytest.raises(ConfigurationError, match=next(iter(solver))):
            tiny_plan(solver=solver)
    # and so are their values' types: an int setting takes no str, float or
    # bool, a float setting takes an int, a bool setting takes only a bool
    for solver in ({"max_outer": "ten"}, {"max_outer": True}, {"max_inner": 6.0},
                   {"mu0": "1e-2"}, {"a": False}, {"optimize_positions": 1},
                   {"min_distance": "5mm"}):
        with pytest.raises(ConfigurationError, match=next(iter(solver))):
            tiny_plan(solver=solver)
    for solver in ({"mu0": 1}, {"min_distance": None}, {"min_distance": 0.006},
                   {"optimize_positions": False}, {"max_outer": 10}):
        tiny_plan(solver=solver)
    # every sweep point's channel, SAR model, region and configurations are
    # built with the plan, so a bad value fails before any trial runs
    for bad, match in [(dict(sweep="half_width", values=(1.0, 0.0)), "half_width"),
                       (dict(accuracy=0), "accuracy"), (dict(beta_bracket=-1.0), "bracket"),
                       (dict(grid_spacing=-0.1), "grid spacing"),
                       (dict(power_budget=0), "power budget"),
                       (dict(noise_variance=0), "noise variance"),
                       (dict(sweep="paths", values=(3, 0)), "L=0"),
                       (dict(sweep="q0", values=(1.6, -0.4)), "SAR budget"),
                       (dict(values=(1e13, -1e13)), "beta0"), (dict(m=0), "M=0")]:
        with pytest.raises(ConfigurationError, match=match):
            tiny_plan(**bad)
    # and nothing derived is stored on the plan
    assert set(vars(tiny_plan())) == {f.name for f in fields(ExperimentPlan)}


def test_plan_json_rejects_unknown_keys():
    doc = tiny_plan().to_json_dict()
    doc["polish"] = False
    with pytest.raises(ConfigurationError, match="polish"):
        ExperimentPlan.from_json_dict(doc)
    with pytest.raises(ConfigurationError, match="max_outer"):
        ExperimentPlan.from_json(json.dumps({**tiny_plan().to_json_dict(),
                                             "solver": {"max_outer": "ten"}}))


def test_plan_json_roundtrip():
    plan = tiny_plan()
    back = ExperimentPlan.from_json(json.dumps(plan.to_json_dict()))
    assert back == plan
    plan = tiny_plan(sweep="scheme", values=("fas", "fpa"), out_csv="a.csv")
    assert ExperimentPlan.from_json(plan.to_json()) == plan


def test_seed_derivation_is_stable_and_distinct():
    a = derive_seed(5, 0)
    assert a == derive_seed(5, 0)
    assert a != derive_seed(5, 1)
    assert a != derive_seed(6, 0)


def test_run_sweep_deterministic_csv(tmp_path):
    plan = tiny_plan(out_csv=str(tmp_path / "a.csv"))
    rec1 = run_sweep(plan)
    plan2 = tiny_plan(out_csv=str(tmp_path / "b.csv"))
    rec2 = run_sweep(plan2)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert rec1.to_csv() == rec2.to_csv()
    header = a.decode().splitlines()[0]
    assert header == "sweep_value,scheme,mean,stderr,trials"


def test_run_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    plan = tiny_plan()
    monkeypatch.delenv("FAS_THREADS", raising=False)
    serial = run_sweep(plan)
    monkeypatch.setenv("FAS_THREADS", "2")
    assert worker_count() == 2
    parallel = run_sweep(plan)
    assert serial.to_csv() == parallel.to_csv()
    assert serial.rows == parallel.rows


def test_run_sweep_aggregates_recomputable():
    rec = run_sweep(tiny_plan())
    for agg in rec.aggregates:
        vals = [r["value_metric"] for r in rec.rows
                if r["sweep_value"] == agg["sweep_value"]
                and r["scheme"] == agg["scheme"] and r["status"] == "ok"]
        assert agg["trials"] == len(vals)
        if vals:
            assert agg["mean"] == pytest.approx(float(np.mean(vals)), rel=1e-12)
            if len(vals) > 1:
                assert agg["stderr"] == pytest.approx(
                    float(np.std(vals, ddof=1) / np.sqrt(len(vals))), rel=1e-12)


def test_run_record_json_roundtrip(tmp_path):
    plan = tiny_plan(out_json=str(tmp_path / "rec.json"))
    rec = run_sweep(plan)
    back = RunRecord.from_json((tmp_path / "rec.json").read_text())
    assert back.plan == rec.plan
    assert back.rows == rec.rows
    assert back.aggregates == rec.aggregates
    assert back.version == rec.version


def test_run_sweep_crn_same_channel_across_schemes():
    rec = run_sweep(tiny_plan())
    by_key = {}
    for r in rec.rows:
        by_key.setdefault((r["point_index"], r["trial"]), []).append(r["seed"])
    for seeds in by_key.values():
        assert len(set(seeds)) == 1  # same channel for every scheme


def test_run_sweep_failure_rows_do_not_abort():
    # an FPA array that cannot fit triggers per-trial errors, not an exception
    plan = tiny_plan(m=4, half_width=0.5, schemes=("fpa",),
                     values=(1.0 / NOISE_W,))
    rec = run_sweep(plan)
    assert all(r["status"] == "error" for r in rec.rows)
    agg = rec.aggregates[0]
    assert agg["trials"] == 0 and agg["failures"] == plan.trials


def test_scheme_sweep_axis():
    plan = tiny_plan(sweep="scheme", values=("fas", "fpa"), schemes=("fas",))
    rec = run_sweep(plan)
    schemes = {agg["scheme"] for agg in rec.aggregates}
    assert schemes == {"fas", "fpa"}


def test_sar_min_rows_carry_warnings():
    rec = run_sweep(tiny_plan(values=(1.0 / NOISE_W,), trials=1, schemes=("fas", "fpa", "aps")))
    assert all(isinstance(r["warnings"], list) for r in rec.rows)
    assert all("probes" not in r for r in rec.rows)


def test_aps_rows_carry_off_lattice_count():
    plan = tiny_plan(values=(1.0 / NOISE_W,), trials=1, schemes=("fas", "aps"))
    rec = run_sweep(plan)
    aps = [r for r in rec.rows if r["scheme"] == "aps"]
    assert aps and all(isinstance(r["aps_off_lattice"], int) for r in aps)
    assert all("aps_off_lattice" not in r for r in rec.rows if r["scheme"] != "aps")
    assert "off_lattice" not in rec.to_csv()


def test_balance_objective_sweep_runs():
    plan = ExperimentPlan(
        objective="balance", sweep="q0", values=(0.4, 1.6), trials=1,
        master_seed=3, schemes=("fas", "no-sar", "backoff"), m=2, k=2, paths=3,
        accuracy=1e11,
        solver=dict(mu0=1e-2, a=0.5, max_outer=50, max_inner=6, max_sca_iter=6,
                    eps_inner_rel=1e-3, eps_position_rel=1e-3))
    rec = run_sweep(plan)
    assert all(r["status"] == "ok" for r in rec.rows)
    assert all("no_feasible_probe" not in r["warnings"] for r in rec.rows)
    # each row counts the probes of its balance solve by ladder phase; backoff
    # scales the power-only design, so it reports that design's probes
    for r in rec.rows:
        assert set(r["probes"]) == {"bracket", "bisect", "descend"}
        assert r["probes"]["bracket"] >= 1
    for pi in (0, 1):
        nosar, backoff = (r["probes"] for r in rec.rows
                          if r["point_index"] == pi and r["scheme"] != "fas")
        assert nosar == backoff
    # backoff can never beat the unconstrained design it scales down
    for pi in (0, 1):
        nosar = [r for r in rec.rows if r["scheme"] == "no-sar" and r["point_index"] == pi]
        backoff = [r for r in rec.rows if r["scheme"] == "backoff" and r["point_index"] == pi]
        assert backoff[0]["value_metric"] <= nosar[0]["value_metric"] + 1e-6


def test_no_feasible_probe_row_is_not_ok(monkeypatch):
    # with the descent disabled and an accuracy wider than the bracket, no
    # probe fits: the trivial fallback is a failed trial, not a zero to average
    monkeypatch.delenv("FAS_THREADS", raising=False)  # the patch is in-process
    monkeypatch.setattr(balance, "MAX_DESCENTS", 0)
    plan = ExperimentPlan(
        objective="balance", sweep="q0", values=(1.6,), trials=2, master_seed=3,
        schemes=("fas",), m=2, k=2, paths=3, accuracy=1e30,
        solver=dict(mu0=1e-2, a=0.5, max_outer=50, max_inner=6, max_sca_iter=6,
                    eps_inner_rel=1e-3, eps_position_rel=1e-3))
    rec = run_sweep(plan)
    for row in rec.rows:
        assert row["status"] == "infeasible"
        assert "no_feasible_probe" in row["warnings"]
    agg = rec.aggregates[0]
    assert agg["trials"] == 0 and agg["failures"] == plan.trials


def test_convergence_trace_shape_and_exit():
    cfg = SolverConfig(mu0=1e-2, a=0.5, max_outer=60, max_inner=8, max_sca_iter=8,
                       eps_inner_rel=1e-3, eps_position_rel=1e-3)
    out = convergence_trace(5, [0.5 / NOISE_W, 4.0 / NOISE_W], m=2, k=2, paths=3,
                            solver_config=cfg)
    assert len(out["traces"]) == 2
    for tr in out["traces"]:
        assert tr["converged"]
        assert tr["final_xi"] < 1e-7
        assert tr["trend_ok"]
        iters = [row[0] for row in tr["trace"]]
        assert iters == sorted(iters)


def test_convergence_trace_iterations_grow_with_target():
    # stricter targets keep the coupling residual above the exit threshold
    # longer, so the outer loop runs more iterations
    cfg = SolverConfig(mu0=1e-2, a=0.5, max_outer=120, max_inner=8, max_sca_iter=8,
                       eps_inner_rel=1e-3, eps_position_rel=1e-3)
    out = convergence_trace(9, [0.5 / NOISE_W, 4.0 / NOISE_W, 1000.0 / NOISE_W],
                            m=2, k=2, paths=3, solver_config=cfg)
    iters = [tr["outer_iterations"] for tr in out["traces"]]
    assert iters == sorted(iters)
    assert iters[-1] > iters[0]


def test_paths_sweep_axis():
    plan = tiny_plan(sweep="paths", values=(3, 8))
    rec = run_sweep(plan)
    assert {agg["sweep_value"] for agg in rec.aggregates} == {3, 8}
    assert all(r["status"] == "ok" for r in rec.rows)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("FAS_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("FAS_THREADS", "3")
    assert worker_count() >= 1


def test_worker_count_rejects_malformed_env(monkeypatch):
    monkeypatch.setenv("FAS_THREADS", "abc")
    with pytest.raises(ConfigurationError, match="FAS_THREADS.*'abc'"):
        worker_count()
