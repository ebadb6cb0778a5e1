import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from fluidsar import balance, harness
from fluidsar.channel import ConfigurationError
from fluidsar.harness import (
    ExperimentPlan,
    RunRecord,
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
    # min_distance is no setting: the spacing is always half a wavelength;
    # nor is lattice: only APS searches the lattice
    for solver in ({"bogus": 1}, {"polish": False}, {"region": None},
                   {"min_distance": 0.006}, {"lattice": True}, {"position_grid": None}):
        with pytest.raises(ConfigurationError, match=next(iter(solver))):
            tiny_plan(solver=solver)
    # and so are their values' types: an int setting takes no str, float or
    # bool, a float setting takes an int, a bool setting takes only a bool
    for solver in ({"max_outer": "ten"}, {"max_outer": True}, {"max_inner": 6.0},
                   {"mu0": "1e-2"}, {"a": False}, {"optimize_positions": 1},
                   {"optimize_positions": None}):
        with pytest.raises(ConfigurationError, match=next(iter(solver))):
            tiny_plan(solver=solver)
    for solver in ({"mu0": 1}, {"optimize_positions": False}, {"max_outer": 10}):
        tiny_plan(solver=solver)
    # every sweep point's channel, SAR model, region and configurations are
    # built with the plan, so a bad value fails before any trial runs
    for bad, match in [(dict(sweep="half_width", values=(1.0, 0.0)), "half_width"),
                       (dict(accuracy=0), "accuracy"), (dict(beta_bracket=-1.0), "bracket"),
                       (dict(power_budget=0), "power budget"),
                       (dict(noise_variance=0), "noise variance"),
                       (dict(sweep="paths", values=(3, 0)), "L=0"),
                       (dict(sweep="q0", values=(1.6, -0.4)), "SAR budget"),
                       (dict(values=(1e13, -1e13)), "beta0"),
                       (dict(m=0), r"^m must be a whole number >= 1, got 0$")]:
        with pytest.raises(ConfigurationError, match=match):
            tiny_plan(**bad)
    # and nothing derived is stored on the plan
    assert set(vars(tiny_plan())) == {f.name for f in fields(ExperimentPlan)}


@pytest.mark.parametrize("setting,value", [("mu0", float("nan")), ("eps_outer", float("nan")),
                                           ("max_inner", 0), ("max_outer", -3)])
def test_plan_refuses_solver_settings_no_solve_can_use(setting, value):
    # the plan builds every point's SolverConfig, so these fail before any
    # trial runs, from code and from JSON alike
    solver = {**tiny_plan().solver, setting: value}
    with pytest.raises(ConfigurationError, match=setting):
        tiny_plan(solver=solver)
    doc = {**tiny_plan().to_json_dict(), "solver": solver}
    with pytest.raises(ConfigurationError, match=setting):
        ExperimentPlan.from_json(json.dumps(doc))


def test_plan_refuses_targets_and_balance_settings_that_are_not_finite():
    # the plan builds every point, so these fail before any trial runs,
    # from code and from JSON alike
    nan, inf = float("nan"), float("inf")
    bad = [(dict(sweep="q0", values=(1.6,), beta0=nan), "beta0"),
           (dict(sweep="q0", values=(1.6,), beta0=inf), "beta0"),
           (dict(values=(1e13, nan)), "beta0"),
           # a beta0 sweep reads its points, not the plan's beta0, and a
           # balance plan reads no beta0: one that is given is still checked
           (dict(beta0=nan), "beta0"), (dict(beta0=-1.0), "beta0"),
           (dict(objective="balance", sweep="q0", values=(1.6,), beta0=nan), "beta0"),
           (dict(objective="balance", sweep="q0", values=(1.6,), beta0=None, accuracy=nan),
            "accuracy"),
           (dict(objective="balance", sweep="q0", values=(1.6,), beta0=None, beta_bracket=inf),
            "bracket"),
           # nor may the region, noise or power budget be NaN or infinite,
           # which a "<= 0" test lets through
           (dict(half_width=nan), "half_width"), (dict(wavelength=inf), "wavelength"),
           (dict(sweep="half_width", values=(inf,), schemes=("fas", "aps")), "half_width"),
           (dict(noise_variance=nan), "noise variance"),
           (dict(noise_variance=inf), "noise variance"),
           (dict(objective="balance", sweep="q0", values=(1.6,), beta0=None,
                 schemes=("no-sar",), power_budget=inf), "power budget"),
           (dict(power_budget=nan), "power budget"),
           # a path count is a whole number: 2.5 would run 2 paths
           (dict(sweep="paths", values=(2.5,)), "paths"),
           (dict(sweep="paths", values=(3, nan)), "paths")]
    for overrides, match in bad:
        with pytest.raises(ConfigurationError, match=match):
            tiny_plan(**overrides)
        doc = {**tiny_plan().to_json_dict(), **overrides}
        with pytest.raises(ConfigurationError, match=match):
            ExperimentPlan.from_json(json.dumps(doc))


@pytest.mark.parametrize("field,value", [
    ("trials", 1.5), ("trials", 0), ("trials", True), ("trials", "2"), ("trials", float("nan")),
    ("master_seed", 1.5), ("master_seed", -3), ("master_seed", None),
    ("k", 2.5), ("k", 0), ("m", 2.5), ("m", float("inf"))])
def test_plan_refuses_counts_and_seeds_that_are_not_whole(field, value):
    # trials, m and k are whole numbers >= 1 and the master seed one >= 0,
    # refused by name when the plan is built, from code and from JSON alike;
    # unchecked, trials=1.5 and master_seed=-3 build a plan whose run_sweep
    # raises a bare TypeError or ValueError
    match = rf"^{field} must be a whole number >= {0 if field == 'master_seed' else 1}"
    with pytest.raises(ConfigurationError, match=match):
        tiny_plan(**{field: value})
    doc = {**tiny_plan().to_json_dict(), field: value}
    with pytest.raises(ConfigurationError, match=match):
        ExperimentPlan.from_json_dict(doc)


def test_plan_takes_whole_floats_as_ints():
    # as a path count does: 2.0 trials are 2
    plan = tiny_plan(trials=2.0, master_seed=77.0, m=2.0, k=2.0, values=(1.0 / NOISE_W,),
                     schemes=("fpa",))
    assert (plan.trials, plan.master_seed, plan.m, plan.k) == (2, 77, 2, 2)
    assert all(type(v) is int for v in (plan.trials, plan.master_seed, plan.m, plan.k))
    assert run_sweep(plan).rows == run_sweep(tiny_plan(values=(1.0 / NOISE_W,),
                                                       schemes=("fpa",))).rows
    assert tiny_plan(master_seed=0).master_seed == 0


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


# three plans whose tasks differ in kind and size: a budget sweep whose
# power-only task serves every point, a region sweep with the lattice search,
# and a scheme sweep that is all power-only tasks
SCHEDULE_PLANS = {
    "q0": dict(sweep="q0", values=(0.4, 1.6), trials=2, schemes=("fas", "no-sar", "backoff")),
    "half_width": dict(sweep="half_width", values=(1.0, 1.5), trials=2,
                       schemes=("fas", "aps", "fpa")),
    "scheme": dict(sweep="scheme", values=("backoff", "no-sar"), trials=3),
}


def balance_plan(**overrides):
    return tiny_plan(**{"objective": "balance", "master_seed": 3, "accuracy": 1e11,
                        "beta0": None, **overrides})


@pytest.mark.parametrize("name", sorted(SCHEDULE_PLANS))
def test_rows_and_csv_do_not_depend_on_the_worker_count(name, monkeypatch):
    plan = balance_plan(**SCHEDULE_PLANS[name])
    monkeypatch.delenv("FAS_THREADS", raising=False)
    serial = run_sweep(plan)
    assert all(r["status"] == "ok" for r in serial.rows)
    # rows in record order: point, trial, then the point's schemes in plan order
    schemes = [[v] if plan.sweep == "scheme" else list(plan.schemes) for v in plan.values]
    assert [(r["point_index"], r["trial"], r["scheme"]) for r in serial.rows] == \
        [(pi, t, s) for pi in range(len(plan.values)) for t in range(plan.trials)
         for s in schemes[pi]]
    for workers in ("2", "3"):
        monkeypatch.setenv("FAS_THREADS", workers)
        pooled = run_sweep(plan)
        assert pooled.rows == serial.rows, workers
        assert pooled.to_csv().encode() == serial.to_csv().encode(), workers


def counting(monkeypatch, name):
    """Count the calls that run_sweep makes to ``harness.<name>``."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_power_only_design_is_solved_once_per_trial(monkeypatch):
    monkeypatch.delenv("FAS_THREADS", raising=False)  # the patch is in-process
    calls = counting(monkeypatch, "solve_without_sar")
    plan = balance_plan(sweep="q0", values=(0.1, 0.4, 1.6), trials=2,
                        schemes=("no-sar", "backoff"))
    rec = run_sweep(plan)
    assert len(calls) == 2  # not one per (point, trial): the design does not read Q0
    # every point's no-SAR row is the one design; each backoff scales it to its own budget
    for trial in range(plan.trials):
        nosar = [r for r in rec.rows if r["trial"] == trial and r["scheme"] == "no-sar"]
        backoff = [r for r in rec.rows if r["trial"] == trial and r["scheme"] == "backoff"]
        assert len({r["value_metric"] for r in nosar}) == 1
        assert [r["sweep_value"] for r in backoff] == list(plan.values)
        assert all(r["sar"] <= r["sweep_value"] * (1 + 1e-12) for r in backoff)
    # along the region axis the design changes with the point: one per (point, trial)
    calls.clear()
    run_sweep(balance_plan(sweep="half_width", values=(1.0, 1.5), trials=2,
                           schemes=("no-sar",)))
    assert len(calls) == 4


def test_tasks_run_longest_scheme_first(monkeypatch):
    monkeypatch.delenv("FAS_THREADS", raising=False)
    calls = counting(monkeypatch, "_run_task")
    plan = balance_plan(sweep="q0", values=(0.4, 1.6), trials=2,
                        schemes=("fpa", "backoff", "fas", "aps", "no-sar"))
    rec = run_sweep(plan)
    # aps, fas, power-only, fpa; ties in plan order (point, then trial)
    assert [(kind, trial, points) for _, kind, trial, points in calls] == \
        [(kind, t, (pi,)) for kind in ("aps", "fas") for pi in (0, 1) for t in (0, 1)] + \
        [("power-only", t, (0, 1)) for t in (0, 1)] + \
        [("fpa", t, (pi,)) for pi in (0, 1) for t in (0, 1)]
    assert [r["scheme"] for r in rec.rows[:5]] == list(plan.schemes)


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


def test_run_record_json_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match=r"unknown record keys \['bogus'\]"):
        RunRecord.from_json_dict({"plan": {}, "rows": [], "aggregates": [], "bogus": 1})
    assert RunRecord.from_json_dict({"plan": {}, "rows": [], "aggregates": []}).rows == []


def test_run_sweep_crn_same_channel_across_schemes():
    rec = run_sweep(tiny_plan())
    by_key = {}
    for r in rec.rows:
        by_key.setdefault((r["point_index"], r["trial"]), []).append(r["seed"])
    for seeds in by_key.values():
        assert len(set(seeds)) == 1  # same channel for every scheme


def test_run_sweep_failure_rows_do_not_abort(monkeypatch):
    # a solve that raises gives per-trial error rows, not an exception
    def fail(*args, **kwargs):
        raise RuntimeError("solve failed")

    monkeypatch.delenv("FAS_THREADS", raising=False)  # serial: the patch holds
    monkeypatch.setattr(harness, "solve_fpa", fail)
    plan = tiny_plan(schemes=("fpa",), values=(1.0 / NOISE_W,))
    rec = run_sweep(plan)
    assert all(r["status"] == "error" for r in rec.rows)
    assert all(r["error"] == "RuntimeError: solve failed" for r in rec.rows)
    agg = rec.aggregates[0]
    assert agg["trials"] == 0 and agg["failures"] == plan.trials


def test_plan_refuses_a_region_that_cannot_hold_a_start_layout():
    # every scheme's start layout is built with the plan: a line of 4 antennas
    # does not fit in +-0.5 wavelength, so no trial runs
    plan = dict(objective="balance", sweep="q0", values=(1.6,), trials=2, master_seed=1,
                m=4, paths=3, half_width=0.5, accuracy=1e13, beta_bracket=1e15)
    for schemes in [("fas", "fpa", "aps", "no-sar"), ("fas",), ("fpa",), ("no-sar",),
                    ("backoff",)]:
        with pytest.raises(ConfigurationError, match="does not fit"):
            ExperimentPlan(schemes=schemes, **plan)
    # APS starts on the region's lattice, whose 9 points hold 4 antennas
    ExperimentPlan(schemes=("aps",), **plan)
    with pytest.raises(ConfigurationError, match="lattice cannot host"):
        ExperimentPlan(**{**plan, "m": 10}, schemes=("aps",))
    # along a half_width sweep, the point that is too small is refused
    with pytest.raises(ConfigurationError, match="does not fit"):
        ExperimentPlan(**{**plan, "sweep": "half_width", "values": (1.0, 0.5)},
                       schemes=("fpa",))


def test_scheme_sweep_axis():
    plan = tiny_plan(sweep="scheme", values=("fas", "fpa"), schemes=("fas",))
    rec = run_sweep(plan)
    schemes = {agg["scheme"] for agg in rec.aggregates}
    assert schemes == {"fas", "fpa"}


def test_sar_min_rows_carry_warnings():
    rec = run_sweep(tiny_plan(values=(1.0 / NOISE_W,), trials=1, schemes=("fas", "fpa", "aps")))
    assert all(isinstance(r["warnings"], list) for r in rec.rows)
    assert all("probes" not in r for r in rec.rows)
    # the lattice search evaluates its starts, not a share of lattice subsets
    assert all("aps_coverage" not in r and "aps_subsampled" not in r for r in rec.rows)


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


# ------------------------------------------------------------------ the sweep pool

def pool_pids() -> set:
    """The worker pids of this process's sweep pool."""
    return set(harness._pool[1]._processes)


def alive(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie, exited but not yet reaped, does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: signal 0 tells whether the pid exists
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def wait_until(condition, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.fixture
def fresh_pool(monkeypatch):
    """No sweep pool before the test, and none left after it."""
    harness._close_pool()
    monkeypatch.setenv("FAS_THREADS", "2")
    yield
    harness._close_pool()


def test_pooled_sweeps_share_one_pool(fresh_pool):
    plan = tiny_plan()
    first = run_sweep(plan)
    pids = pool_pids()
    assert len(pids) == 2 and all(map(alive, pids))
    second = run_sweep(tiny_plan(master_seed=78))
    assert pool_pids() == pids
    assert first.rows == run_sweep(plan).rows and second.rows != first.rows
    assert pool_pids() == pids


def test_a_new_worker_count_replaces_the_pool(fresh_pool, monkeypatch):
    plan = tiny_plan()
    two = run_sweep(plan)
    old = pool_pids()
    monkeypatch.setenv("FAS_THREADS", "3")
    three = run_sweep(plan)
    new = pool_pids()
    assert len(new) == 3 and not new & old
    assert not any(map(alive, old))  # shut down and reaped, not left idle
    assert two.rows == three.rows


def test_a_sweep_after_a_broken_pool_gets_a_fresh_one(fresh_pool):
    plan = tiny_plan()
    before = run_sweep(plan)
    old = pool_pids()
    os.kill(min(old), signal.SIGKILL)
    # the pool notices the dead worker, stops the other and refuses work
    assert wait_until(lambda: harness._pool[1]._broken)
    after = run_sweep(plan)
    assert not pool_pids() & old and len(pool_pids()) == 2
    assert after.rows == before.rows
    assert not any(map(alive, old))


CHILD_SWEEP = """
import os, signal, sys
os.environ["FAS_THREADS"] = "2"
from fluidsar import harness
harness.run_sweep(harness.ExperimentPlan(
    objective="sar-min", sweep="beta0", values=(1e13, 2e13), trials=2, master_seed=5,
    schemes=("fpa",), m=2, k=2, paths=3, beta0=1e13))
print(" ".join(map(str, sorted(harness._pool[1]._processes))), flush=True)
if sys.argv[1] == "killed":
    os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.parametrize("end", ["exits", "killed"])
def test_no_worker_outlives_its_sweep_process(end, tmp_path):
    # a process that ran a pooled sweep leaves no worker behind, whether it
    # exits (the pool is shut down at exit) or is killed (each worker sees its
    # parent gone and exits). Output goes to files, not pipes that a live
    # worker would hold open
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "w") as fo, open(err, "w") as fe:
        code = subprocess.run([sys.executable, "-c", CHILD_SWEEP, end], env=env, stdout=fo,
                              stderr=fe, timeout=120).returncode
    assert code == (-signal.SIGKILL if end == "killed" else 0), err.read_text()
    pids = [int(p) for p in out.read_text().split()]
    assert len(pids) == 2
    try:
        assert wait_until(lambda: not any(map(alive, pids))), [p for p in pids if alive(p)]
    finally:
        for pid in filter(alive, pids):  # a failed check leaves no orphan either
            os.kill(pid, signal.SIGKILL)
